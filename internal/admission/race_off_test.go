//go:build !race

package admission

const raceEnabled = false
