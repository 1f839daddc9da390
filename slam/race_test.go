//go:build race

package slam

const raceEnabled = true
