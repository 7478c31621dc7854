// Package buildinfo exposes the identity of the running binary — module
// version, VCS revision and Go toolchain — read once from the build info
// the Go linker embeds. gaussd stamps it onto /v1/stats and the
// gaussd_build_info metric, so every scrape says what produced it.
package buildinfo

import (
	"runtime/debug"
	"sync"
)

// Info identifies one build of a binary in this module.
type Info struct {
	// Version is the main module version; "(devel)" for a source build.
	Version string `json:"version"`
	// Revision is the VCS revision the binary was built from, or "unknown"
	// when the build carried no VCS stamp (e.g. go test binaries).
	Revision string `json:"revision"`
	// Modified reports whether the working tree had uncommitted changes.
	Modified bool `json:"modified"`
	// GoVersion is the Go toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

var (
	once   sync.Once
	cached Info
)

// Get returns the running binary's build identity. The first call reads
// runtime/debug.ReadBuildInfo; subsequent calls return the cached value.
func Get() Info {
	once.Do(func() {
		cached = Info{Version: "(devel)", Revision: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		cached.GoVersion = bi.GoVersion
		if bi.Main.Version != "" {
			cached.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cached.Revision = s.Value
			case "vcs.modified":
				cached.Modified = s.Value == "true"
			}
		}
	})
	return cached
}
