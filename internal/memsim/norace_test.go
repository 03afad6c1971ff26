//go:build !race

package memsim

// raceEnabled scales the full-workload differential cases down when the
// race detector (~10-20x slowdown) is on; the full cases run in the
// uninstrumented test pass.
const raceEnabled = false
