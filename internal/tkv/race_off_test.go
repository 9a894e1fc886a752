//go:build !race

package tkv

const raceEnabled = false
