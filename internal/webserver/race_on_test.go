//go:build race

package webserver

// raceEnabled reports whether the race detector is active. Alloc-count
// assertions over sync.Pool-backed paths are skipped under -race: the
// runtime deliberately drops a fraction of Pool.Put calls in race mode,
// so pooled objects re-allocate by design there.
const raceEnabled = true
