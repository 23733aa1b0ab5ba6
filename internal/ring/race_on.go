//go:build race

package ring

// raceEnabled gates assertions that only -race builds pay for.
const raceEnabled = true
