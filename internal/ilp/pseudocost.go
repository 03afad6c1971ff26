package ilp

import "math"

// pcStat is one side of a variable's pseudocost: the summed per-unit
// objective gain over n branching observations.
type pcStat struct {
	sum float64
	n   int
}

// pcTable is the run-local pseudocost store over w's variables.
type pcTable struct {
	up, down []pcStat
}

func newPCTable(n int) *pcTable {
	return &pcTable{up: make([]pcStat, n), down: make([]pcStat, n)}
}

// observe records one branching outcome: branching variable j with
// fractional part frac gained gain objective units in the up (ceil) or
// down (floor) child.
func (t *pcTable) observe(j int, frac float64, up bool, gain float64) {
	if gain < 0 {
		gain = 0
	}
	if up {
		t.up[j].sum += gain / (1 - frac)
		t.up[j].n++
	} else {
		t.down[j].sum += gain / frac
		t.down[j].n++
	}
}

// score rates branching on variable j at fractional part frac with the
// standard pseudocost product rule. Variables without observations use
// the table-wide average; with an empty table both sides average to 1
// and the score degenerates to frac·(1−frac) — exactly the
// most-fractional order (both are monotone in the distance to the
// nearest integer, with identical ties).
func (t *pcTable) score(j int, frac float64) float64 {
	avg := func(stats []pcStat, st pcStat) float64 {
		if st.n > 0 {
			return st.sum / float64(st.n)
		}
		sum, n := 0.0, 0
		for _, s := range stats {
			if s.n > 0 {
				sum += s.sum / float64(s.n)
				n++
			}
		}
		if n > 0 {
			return sum / float64(n)
		}
		return 1
	}
	down := avg(t.down, t.down[j]) * frac
	up := avg(t.up, t.up[j]) * (1 - frac)
	return math.Max(down, 1e-12) * math.Max(up, 1e-12)
}
