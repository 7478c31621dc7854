package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	gausstree "github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/internal/wire"
)

// servingState is the daemon's health machine: healthy serves everything,
// degraded serves reads from the last committed snapshot and refuses
// mutations with 503, recovering is degraded with a reopen in progress. The
// zero value is healthy so a fresh Server starts serving.
type servingState int32

const (
	stateHealthy servingState = iota
	stateDegraded
	stateRecovering
)

func (s servingState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDegraded:
		return "degraded"
	case stateRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

func (s *Server) servingState() servingState { return servingState(s.health.Load()) }

// scrubLastSeconds decodes the last scrub pass duration published by
// runScrub (stored as float bits so a uint64 atomic carries it).
func (s *Server) scrubLastSeconds() float64 {
	return math.Float64frombits(s.scrubLastSecBits.Load())
}

// admitMutation refuses mutations while the daemon is not healthy: 503 with
// the "degraded" wire code and Retry-After, before the index is touched —
// which is what makes the rejection unconditionally safe to retry, even for
// inserts. Handlers call it twice: once outside the mutation gate so a
// degraded daemon answers immediately, and once under the gate's read lock
// where the answer cannot race a recovery swap.
func (s *Server) admitMutation(w http.ResponseWriter) bool {
	if s.servingState() == stateHealthy {
		return true
	}
	msg := "daemon is degraded; mutations are refused until recovery completes"
	if r := s.degradeReason.Load(); r != nil {
		msg = "daemon is degraded (" + *r + "); mutations are refused until recovery completes"
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, wire.Error{Code: wire.ErrCodeDegraded, Error: msg})
	return false
}

// noteMutationError degrades the daemon when a mutation failed for a
// storage-level reason (anything that may have poisoned the tree or failed
// the WAL). Client errors and deadline expiries pass through untouched.
func (s *Server) noteMutationError(err error) {
	if isStorageFault(err) {
		s.degrade(err)
	}
}

// isStorageFault reports whether err indicates storage-level damage rather
// than a client mistake or an expired deadline. Invalid input is rejected by
// the facade before the engine runs, a closed index means shutdown is
// already underway, and context expiry only ever interrupts the admission
// wait — none of those poison anything. Everything else (ErrPoisoned,
// failed WAL commits, I/O errors) does.
func isStorageFault(err error) bool {
	return err != nil &&
		!errors.Is(err, gausstree.ErrInvalidQuery) &&
		!errors.Is(err, gausstree.ErrClosed) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled)
}

// degrade flips the daemon healthy → degraded exactly once per incident,
// records why, and wakes the supervisor. Faults reported while already
// degraded or recovering are no-ops: the first cause is the one being
// healed, and the supervisor re-runs until the daemon is healthy anyway.
func (s *Server) degrade(err error) {
	if !s.health.CompareAndSwap(int32(stateHealthy), int32(stateDegraded)) {
		return
	}
	msg := err.Error()
	s.degradeReason.Store(&msg)
	s.degradedTotal.Add(1)
	select {
	case s.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// supervise is the self-healing loop (started when Config.Reopen is set):
// each time the daemon degrades it retries recoverOnce with capped
// exponential backoff until the daemon is healthy again or Shutdown stops
// it. It is the only goroutine that ever writes s.idx after New.
func (s *Server) supervise() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		backoff := s.cfg.RecoveryBase
		for s.servingState() != stateHealthy {
			s.health.Store(int32(stateRecovering))
			if s.recoverOnce() {
				break
			}
			s.health.Store(int32(stateDegraded))
			select {
			case <-s.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > s.cfg.RecoveryMax {
				backoff = s.cfg.RecoveryMax
			}
		}
	}
}

// recoverOnce performs one quiesce–quarantine–reopen–swap attempt. The
// exclusive mutation gate guarantees no mutation is mid-flight; with the
// gate held the old index is first made permanently write-inert
// (Quarantine poisons its tree and fails its WAL), because old and new
// share the same page and WAL files — without that, the old index's Close
// could still checkpoint meta or truncate the log the healed index now
// owns. Only then is Reopen called; on success the healed index is
// published with one atomic store and the old one is closed afterwards, so
// in-flight reads on the old snapshot finish (or fail cleanly) while new
// requests already see the healed index.
func (s *Server) recoverOnce() bool {
	s.recoveryAttempts.Add(1)
	s.mutGate.Lock()
	defer s.mutGate.Unlock()
	old := s.index()
	s.settleWAL(old)
	cause := errors.New("storage fault")
	if r := s.degradeReason.Load(); r != nil {
		cause = errors.New(*r)
	}
	old.Quarantine(cause)
	idx, err := s.cfg.Reopen()
	if err != nil {
		msg := "reopen failed: " + err.Error()
		s.degradeReason.Store(&msg)
		return false
	}
	s.idx.Store(&idxBox{idx: idx})
	s.health.Store(int32(stateHealthy))
	s.degradeReason.Store(nil)
	s.recoveries.Add(1)
	// Close strictly after the swap: the old index is quarantined, so this
	// releases file handles and reader epochs without writing anything.
	old.Close()
	return true
}

// settleWAL gives the old index's group committer a moment to drain appends
// that are already on their way to disk. With the mutation gate held
// exclusively every acknowledged mutation is durable by contract (the
// facade waits for durability before returning), so this only matters for
// the failed-log case — where durability stops advancing and the loop exits
// as soon as it observes that.
func (s *Server) settleWAL(idx Index) {
	var lastDurable uint64
	for i := 0; i < 100; i++ {
		ws, ok := idx.WALStats()
		if !ok || ws.AppendedLSN == ws.DurableLSN {
			return
		}
		if i > 0 && ws.DurableLSN == lastDurable {
			return // durability is no longer advancing (failed committer)
		}
		lastDurable = ws.DurableLSN
		select {
		case <-s.stop:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// scrubLoop runs the background integrity scrubber every ScrubInterval
// while the daemon is healthy; a degraded daemon skips passes (the
// supervisor is already reopening, which re-verifies everything it reads).
func (s *Server) scrubLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.servingState() != stateHealthy {
				continue
			}
			s.runScrub()
		}
	}
}

// runScrub verifies every reachable page and the WAL's durable prefix,
// rate-limited to ScrubRate pages per second, and degrades the daemon on
// real corruption. A pass interrupted by Shutdown or racing a concurrent
// Close reports nothing.
func (s *Server) runScrub() {
	//lint:ignore ctxflow the scrubber is a background owner of its own root context; Shutdown cancels it via s.stop through the watcher below.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer cancel()
		select {
		case <-s.stop:
		case <-done:
		}
	}()
	rep, err := s.index().Scrub(ctx, s.cfg.ScrubRate)
	s.scrubRuns.Add(1)
	s.scrubPages.Add(uint64(rep.Pages))
	s.scrubLastSecBits.Store(math.Float64bits(rep.Elapsed.Seconds()))
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, gausstree.ErrClosed) {
		return
	}
	s.scrubErrors.Add(1)
	s.degrade(fmt.Errorf("integrity scrub: %w", err))
}

// handleReady is the readiness probe: 200 only while healthy, 503 with the
// serving state (and the degrade reason) in the body otherwise, so load
// balancers drain a degraded daemon while /healthz keeps orchestrators from
// restarting it mid-recovery.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.servingState()
	resp := wire.ReadyResponse{State: st.String()}
	if st == stateHealthy {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if rp := s.degradeReason.Load(); rp != nil {
		resp.Reason = *rp
	}
	w.Header().Set("Retry-After", "1")
	noteOutcome(w, wire.ErrCodeDegraded)
	writeJSON(w, http.StatusServiceUnavailable, resp)
}
