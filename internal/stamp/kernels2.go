package stamp

import (
	"math/rand"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// --- kmeans: iterative clustering ---

// kmeans assigns random points to the nearest of K centroids and folds
// the point into that centroid's shared accumulators — a tiny
// transaction with D+1 writes. As in STAMP, the nearest-centre search
// runs outside the transaction, against the pass's fixed centres; only
// the accumulate is transactional. Contention is therefore governed by
// K alone: the high-contention configuration uses few centroids (every
// thread hits the same few accumulators), the low-contention one many.
// (Reading all K centres inside the transaction gave "low" the 8× longer
// read set and made it the more conflict-prone of the two.)
type kmeans struct {
	k, dims int
	high    bool
	centers [][]float64           // the pass's centres: immutable after Setup
	sums    *stmds.Array[float64] // k*(dims+1) accumulator cells: [sum_d..., count]
	points  [][]float64           // immutable input data
}

func newKMeans(high bool) *kmeans {
	k := 32
	if high {
		k = 4
	}
	return &kmeans{k: k, dims: 4, high: high}
}

func (km *kmeans) Name() string {
	if km.high {
		return "kmeans-high"
	}
	return "kmeans-low"
}

func (km *kmeans) Setup(th stm.Thread) error {
	km.sums = stmds.NewArray[float64](km.k*(km.dims+1), 0)
	rng := rand.New(rand.NewSource(13))
	randomPoints := func(n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pt := make([]float64, km.dims)
			for d := range pt {
				pt[d] = rng.Float64() * 100
			}
			pts[i] = pt
		}
		return pts
	}
	km.points = randomPoints(512)
	km.centers = randomPoints(km.k)
	return nil
}

// nearest returns the index of the centre closest to pt.
func (km *kmeans) nearest(pt []float64) int {
	best, bestDist := 0, 0.0
	for c, center := range km.centers {
		dist := 0.0
		for d, x := range pt {
			diff := x - center[d]
			dist += diff * diff
		}
		if c == 0 || dist < bestDist {
			best, bestDist = c, dist
		}
	}
	return best
}

func (km *kmeans) Op(th stm.Thread, rng *rand.Rand) error {
	pt := km.points[rng.Intn(len(km.points))]
	base := km.nearest(pt) * (km.dims + 1)
	return th.Atomically(func(tx stm.Tx) error {
		for d := 0; d < km.dims; d++ {
			if _, err := km.sums.Add(tx, base+d, pt[d]); err != nil {
				return err
			}
		}
		_, err := km.sums.Add(tx, base+km.dims, 1)
		return err
	})
}

// --- labyrinth: parallel maze routing ---

// labyrinth routes paths through a shared grid: a transaction reads the
// cells of a candidate L-shaped path between two random points and, if all
// are free, claims every cell — very long transactions with write sets of
// dozens of cells, the longest in STAMP.
type labyrinth struct {
	w, h int
	grid *stmds.Array[int] // 0 = free, else path ID
}

func newLabyrinth() *labyrinth { return &labyrinth{w: 64, h: 64} }

func (l *labyrinth) Name() string { return "labyrinth" }

func (l *labyrinth) Setup(th stm.Thread) error {
	l.grid = stmds.NewArray(l.w*l.h, 0)
	return nil
}

func (l *labyrinth) cell(x, y int) int { return y*l.w + x }

func (l *labyrinth) Op(th stm.Thread, rng *rand.Rand) error {
	x1, y1 := rng.Intn(l.w), rng.Intn(l.h)
	x2, y2 := rng.Intn(l.w), rng.Intn(l.h)
	pathID := rng.Intn(1<<30) + 1
	clear := rng.Intn(100) < 30 // some ops tear old paths down instead
	return th.Atomically(func(tx stm.Tx) error {
		// Collect the L-shaped path: horizontal then vertical.
		var cells []int
		step := 1
		if x2 < x1 {
			step = -1
		}
		for x := x1; x != x2; x += step {
			cells = append(cells, l.cell(x, y1))
		}
		step = 1
		if y2 < y1 {
			step = -1
		}
		for y := y1; y != y2; y += step {
			cells = append(cells, l.cell(x2, y))
		}
		cells = append(cells, l.cell(x2, y2))
		if clear {
			for _, c := range cells {
				if err := l.grid.Set(tx, c, 0); err != nil {
					return err
				}
			}
			return nil
		}
		// Validate the whole path, then claim it.
		for _, c := range cells {
			v, err := l.grid.Get(tx, c)
			if err != nil {
				return err
			}
			if v != 0 {
				return nil // blocked: give up (committed no-op)
			}
		}
		for _, c := range cells {
			if err := l.grid.Set(tx, c, pathID); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- ssca2: scalable graph kernel ---

// ssca2 builds a large graph: each transaction appends one directed edge by
// writing two random slots of a big adjacency structure and bumping two
// degree counters — the smallest transactions in STAMP, with negligible
// conflict probability.
type ssca2 struct {
	nodes   int
	slots   int
	adj     *stmds.Array[int] // nodes*slots edge targets
	degrees *stmds.Array[int] // nodes counters
}

func newSSCA2() *ssca2 { return &ssca2{nodes: 2048, slots: 8} }

func (s *ssca2) Name() string { return "ssca2" }

func (s *ssca2) Setup(th stm.Thread) error {
	s.adj = stmds.NewArray(s.nodes*s.slots, 0)
	s.degrees = stmds.NewArray(s.nodes, 0)
	return nil
}

func (s *ssca2) Op(th stm.Thread, rng *rand.Rand) error {
	u := rng.Intn(s.nodes)
	v := rng.Intn(s.nodes)
	return th.Atomically(func(tx stm.Tx) error {
		deg, err := s.degrees.Get(tx, u)
		if err != nil {
			return err
		}
		slot := u*s.slots + deg%s.slots
		if err := s.adj.Set(tx, slot, v+1); err != nil {
			return err
		}
		_, err = s.degrees.Add(tx, u, 1)
		return err
	})
}
