// Fixture for the waldurable analyzer: a miniature of the core tree's
// publish protocol. The bad replay case is distilled from the real pre-fix
// shape of recovery paths that published without a preceding durability
// call.
package waldurable

import "sync/atomic"

type snap struct{ count int }

type wal struct{}

func (w *wal) Append(rec []byte) (uint64, error) { return 0, nil }

type mgr struct{}

func (m *mgr) AdvanceEpoch() {}

type tree struct {
	mgr  *mgr
	wal  *wal
	snap atomic.Pointer[snap]
}

// publish is the one designated publication point: storing the snapshot and
// advancing the epoch are allowed only here.
func (t *tree) publish() {
	t.snap.Store(&snap{})
	t.mgr.AdvanceEpoch()
}

func (t *tree) commitMeta() error { return nil }

// good: the WAL append precedes publication, so a crash in between replays.
func (t *tree) insert(rec []byte) error {
	if _, err := t.wal.Append(rec); err != nil {
		return err
	}
	t.publish()
	return nil
}

// good: a meta commit is an equally valid durability point.
func (t *tree) checkpointed() error {
	if err := t.commitMeta(); err != nil {
		return err
	}
	t.publish()
	return nil
}

// seal is the tree's one log-or-commit step.
func (t *tree) seal(rec []byte) error {
	_, err := t.wal.Append(rec)
	return err
}

// good: delegating to the seal is a durability point too.
func (t *tree) sealed(rec []byte) error {
	if err := t.seal(rec); err != nil {
		return err
	}
	t.publish()
	return nil
}

// bad: visibility before durability — a crash here acknowledges a mutation
// recovery cannot replay.
func (t *tree) replay() {
	t.publish() // want "publish.. without a preceding WAL append or meta commit"
}

// bad: storing the snapshot pointer anywhere but publish bypasses the
// WAL-ordered path.
func (t *tree) sneakyStore(s *snap) {
	t.snap.Store(s) // want "snapshot pointer stored outside publish"
}

// bad: publishing and advancing the epoch are one protocol step.
func (t *tree) sneakyAdvance() {
	t.mgr.AdvanceEpoch() // want "AdvanceEpoch called outside publish"
}
