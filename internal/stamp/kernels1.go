package stamp

import (
	"math/rand"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// --- bayes: Bayesian network structure learning ---

// bayes keeps a dependency graph over vars variables (adjacency matrix of
// Vars) plus per-variable score accumulators. A transaction evaluates a
// candidate edge: it reads the target's full adjacency row and a window of
// scores (a large read set, like the original's sufficient-statistics
// scans), then occasionally flips the edge and adjusts scores.
type bayes struct {
	vars   int
	adj    *stmds.Array[int]     // vars*vars cells (0/1)
	scores *stmds.Array[float64] // vars cells
}

func newBayes() *bayes { return &bayes{vars: 32} }

func (b *bayes) Name() string { return "bayes" }

func (b *bayes) Setup(th stm.Thread) error {
	b.adj = stmds.NewArray(b.vars*b.vars, 0)
	b.scores = stmds.NewArray[float64](b.vars, 0)
	rng := rand.New(rand.NewSource(11))
	return th.Atomically(func(tx stm.Tx) error {
		for i := 0; i < b.vars; i++ {
			if err := b.scores.Set(tx, i, rng.Float64()); err != nil {
				return err
			}
		}
		for e := 0; e < b.vars*2; e++ {
			i, j := rng.Intn(b.vars), rng.Intn(b.vars)
			if i != j {
				if err := b.adj.Set(tx, i*b.vars+j, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (b *bayes) Op(th stm.Thread, rng *rand.Rand) error {
	target := rng.Intn(b.vars)
	src := rng.Intn(b.vars)
	flip := rng.Intn(100) < 30
	return th.Atomically(func(tx stm.Tx) error {
		// Score the candidate parent set: read the full adjacency row
		// and all scores the row points at.
		total := 0.0
		for j := 0; j < b.vars; j++ {
			edge, err := b.adj.Get(tx, target*b.vars+j)
			if err != nil {
				return err
			}
			if edge != 0 {
				s, err := b.scores.Get(tx, j)
				if err != nil {
					return err
				}
				total += s
			}
		}
		if !flip || src == target {
			return nil
		}
		cell := target*b.vars + src
		cur, err := b.adj.Get(tx, cell)
		if err != nil {
			return err
		}
		if err := b.adj.Set(tx, cell, 1-cur); err != nil {
			return err
		}
		_, err = b.scores.Add(tx, target, total*0.001)
		return err
	})
}

// --- genome: segment de-duplication and chain stitching ---

// genome de-duplicates random DNA segments into a hash set, then stitches
// unique segments into per-bucket chains (sorted lists), mimicking the two
// transactional phases of the original.
type genome struct {
	segments *stmds.HashMap[uint64]
	chains   []*stmds.SortedList[int64]
	space    uint64
}

func newGenome() *genome { return &genome{space: 8192} }

func (g *genome) Name() string { return "genome" }

func (g *genome) Setup(th stm.Thread) error {
	g.segments = stmds.NewHashMap[uint64](1024)
	g.chains = make([]*stmds.SortedList[int64], 16)
	for i := range g.chains {
		g.chains[i] = stmds.NewSortedList[int64]()
	}
	return nil
}

func (g *genome) Op(th stm.Thread, rng *rand.Rand) error {
	seg := uint64(rng.Intn(int(g.space)))
	if rng.Intn(100) < 70 {
		// Phase-1 style: de-duplicate the segment.
		return th.Atomically(func(tx stm.Tx) error {
			_, err := g.segments.PutIfAbsent(tx, seg, seg)
			return err
		})
	}
	// Phase-2 style: stitch the segment into its overlap chain.
	chain := g.chains[seg%uint64(len(g.chains))]
	return th.Atomically(func(tx stm.Tx) error {
		ok, err := g.segments.Contains(tx, seg)
		if err != nil || !ok {
			return err
		}
		_, err = chain.Insert(tx, int64(seg), int64(seg))
		return err
	})
}

// --- intruder: signature-based network intrusion detection ---

// intruder is the paper's headline serialization case: every thread
// dequeues from one shared packet queue, reassembles the packet's flow in a
// shared map, and on completion runs a read-only detection pass. The queue
// head is the contention locus. Each op also produces a packet so the queue
// never empties.
type intruder struct {
	queue     *stmds.Queue[packet]
	flows     *stmds.HashMap[int] // flowID -> fragments seen
	detector  *stmds.Array[int]   // signature table, read-only after setup
	flowSpace int
	fragments int
}

func newIntruder() *intruder { return &intruder{flowSpace: 1024, fragments: 4} }

func (in *intruder) Name() string { return "intruder" }

type packet struct {
	flow int
	frag int
}

func (in *intruder) Setup(th stm.Thread) error {
	in.queue = stmds.NewQueue[packet]()
	// A flow's first fragment inserts it and its last deletes it, and each
	// writes the flow's bucket. The map mixes keys, so two live flows share
	// a bucket with probability 1/buckets whatever their number: at four
	// buckets a flow (4,096) that is 1/4,096.
	in.flows = stmds.NewHashMap[int](4 * in.flowSpace)
	in.detector = stmds.NewArray(256, 1)
	rng := rand.New(rand.NewSource(5))
	// Prime the queue.
	for i := 0; i < 256; i += 32 {
		if err := th.Atomically(func(tx stm.Tx) error {
			for j := 0; j < 32; j++ {
				p := packet{flow: rng.Intn(in.flowSpace), frag: rng.Intn(in.fragments)}
				if err := in.queue.Enqueue(tx, p); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (in *intruder) Op(th stm.Thread, rng *rand.Rand) error {
	// Capture phase: produce one packet (separate transaction, as the
	// original's capture thread does).
	p := packet{flow: rng.Intn(in.flowSpace), frag: rng.Intn(in.fragments)}
	if err := th.Atomically(func(tx stm.Tx) error {
		return in.queue.Enqueue(tx, p)
	}); err != nil {
		return err
	}
	// Reassembly + detection phase: dequeue and process.
	var complete bool
	var flowID int
	if err := th.Atomically(func(tx stm.Tx) error {
		complete = false
		pk, ok, err := in.queue.Dequeue(tx)
		if err != nil || !ok {
			return err
		}
		flowID = pk.flow
		seen, _, err := in.flows.Get(tx, uint64(pk.flow))
		if err != nil {
			return err
		}
		seen++
		if seen >= in.fragments {
			complete = true
			_, err = in.flows.Delete(tx, uint64(pk.flow))
			return err
		}
		_, err = in.flows.Put(tx, uint64(pk.flow), seen)
		return err
	}); err != nil {
		return err
	}
	if !complete {
		return nil
	}
	// Detection pass: read-only scan of the signature window.
	return th.Atomically(func(tx stm.Tx) error {
		base := flowID % (in.detector.Len() - 8)
		acc := 0
		for i := 0; i < 8; i++ {
			n, err := in.detector.Get(tx, base+i)
			if err != nil {
				return err
			}
			acc += n
		}
		_ = acc
		return nil
	})
}
