//go:build race

package core

// raceEnabled reports a race-detector build, whose sync.Pool drops items at
// random: allocation counts there measure the detector, not the code.
const raceEnabled = true
