//go:build !race

package fleet_test

const raceEnabled = false
