// Package bench7 is a Go port of STMBench7 (Guerraoui, Kapalka, Vitek,
// EuroSys 2007), the large CAD/CAM-like benchmark the paper evaluates on.
// It builds the benchmark's object graph — a module whose design root is a
// tree of complex assemblies over base assemblies over shared composite
// parts, each composite part owning a graph of atomic parts plus a
// document — together with the id indexes, and exposes the benchmark's
// operation categories (traversals, queries, structural modifications)
// under the paper's three workload mixes (read-dominated, read-write,
// write-dominated), with long traversals off as in the paper's runs.
//
// The structure is scaled down from the original's defaults so that a full
// multi-series sweep completes on a laptop, preserving the shape: deep
// assembly hierarchy, shared composite parts, per-part atomic graphs with
// cross connections, and index-mediated random access. All transactional
// fields are typed TVars, so traversals (the benchmark's hot path) read
// child lists and coordinates without interface boxing.
package bench7

import (
	"fmt"
	"math/rand"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// Params sizes the object graph. Zero values fall back to DefaultParams.
type Params struct {
	// AssemblyLevels is the height of the assembly tree (root complex
	// assembly at level AssemblyLevels, base assemblies at level 1).
	AssemblyLevels int
	// AssemblyFanout is the number of subassemblies per complex assembly.
	AssemblyFanout int
	// ComponentsPerAssembly is the number of composite parts referenced
	// by each base assembly.
	ComponentsPerAssembly int
	// CompositeParts is the size of the shared composite-part pool.
	CompositeParts int
	// AtomicPartsPerComposite is the size of each part's atomic graph.
	AtomicPartsPerComposite int
	// ConnectionsPerAtomic is the out-degree of each atomic part.
	ConnectionsPerAtomic int
	// MaxBuildDate bounds the random build dates.
	MaxBuildDate int
}

// DefaultParams returns the scaled-down STMBench7 geometry used by the
// reproduction: 1053 atomic parts in 81 composite parts under a 4-level
// assembly tree (the original: 200 atomic parts per composite, 500
// composite parts, 7 levels).
func DefaultParams() Params {
	return Params{
		AssemblyLevels:          4,
		AssemblyFanout:          3,
		ComponentsPerAssembly:   3,
		CompositeParts:          50,
		AtomicPartsPerComposite: 20,
		ConnectionsPerAtomic:    3,
		MaxBuildDate:            1000,
	}
}

// AtomicPart is a node of a composite part's graph. ID and the connection
// wiring var are fixed; coordinates and build date are transactional.
type AtomicPart struct {
	ID   int64
	X, Y *stm.TVar[int]
	Date *stm.TVar[int]
	// Conns is the connection slice, copy-on-write.
	Conns *stm.TVar[[]*AtomicPart]
	// Owner is the composite part this atomic part belongs to.
	Owner *CompositePart
}

// Document is a composite part's documentation.
type Document struct {
	ID    int64
	Title string
	Text  *stm.TVar[string]
}

// CompositePart aggregates a document and a graph of atomic parts.
type CompositePart struct {
	ID   int64
	Date *stm.TVar[int]
	Doc  *Document
	// Root is the entry point of the atomic graph.
	Root *AtomicPart
	// Parts is the atomic-part slice, copy-on-write.
	Parts *stm.TVar[[]*AtomicPart]
}

// BaseAssembly references composite parts from the shared pool.
type BaseAssembly struct {
	ID int64
	// Components is the composite slice, copy-on-write.
	Components *stm.TVar[[]*CompositePart]
}

// ComplexAssembly is an inner node of the assembly tree. The child lists
// are transactional (as in STMBench7, where structural operations may
// rewire the hierarchy), which also means every root-down traversal reads
// the same upper-level vars — the temporal locality Shrink's read
// prediction exploits.
type ComplexAssembly struct {
	ID    int64
	Level int
	// Subs holds the subassemblies (inner levels).
	Subs *stm.TVar[[]*ComplexAssembly]
	// Bases holds the base assemblies (level 2 only).
	Bases *stm.TVar[[]*BaseAssembly]
}

// Benchmark is the shared STMBench7 state.
type Benchmark struct {
	Params Params

	Root       *ComplexAssembly
	Bases      []*BaseAssembly
	Composites []*CompositePart

	// AtomicIndex maps atomic part ID -> *AtomicPart.
	AtomicIndex *stmds.HashMap[*AtomicPart]
	// CompositeIndex maps composite part ID -> *CompositePart.
	CompositeIndex *stmds.HashMap[*CompositePart]
	// DateIndex maps build date -> count of atomic parts with that date
	// (a simplified build-date index supporting range queries).
	DateIndex *stmds.HashMap[int]

	nextAtomicID *stm.TVar[int64] // for structural modifications
}

// New allocates an empty benchmark; call Build within a thread to populate.
func New(p Params) *Benchmark {
	if p.AssemblyLevels == 0 {
		p = DefaultParams()
	}
	return &Benchmark{Params: p}
}

// Build constructs the object graph transactionally (in batches, so no
// single transaction becomes pathological).
func (b *Benchmark) Build(th stm.Thread) error {
	p := b.Params
	b.AtomicIndex = stmds.NewHashMap[*AtomicPart](p.CompositeParts * p.AtomicPartsPerComposite)
	b.CompositeIndex = stmds.NewHashMap[*CompositePart](p.CompositeParts * 2)
	b.DateIndex = stmds.NewHashMap[int](p.MaxBuildDate)
	rng := rand.New(rand.NewSource(7))

	// Composite parts with their atomic graphs and documents.
	b.Composites = make([]*CompositePart, p.CompositeParts)
	atomicID := int64(0)
	for c := 0; c < p.CompositeParts; c++ {
		c := c
		if err := th.Atomically(func(tx stm.Tx) error {
			cp := &CompositePart{
				ID:   int64(c + 1),
				Date: stm.NewT(rng.Intn(p.MaxBuildDate)),
				Doc: &Document{
					ID:    int64(c + 1),
					Title: fmt.Sprintf("doc-%d", c+1),
					Text:  stm.NewT(fmt.Sprintf("documentation for composite part %d", c+1)),
				},
			}
			parts := make([]*AtomicPart, p.AtomicPartsPerComposite)
			for i := range parts {
				atomicID++
				date := rng.Intn(p.MaxBuildDate)
				parts[i] = &AtomicPart{
					ID:    atomicID,
					X:     stm.NewT(rng.Intn(1000)),
					Y:     stm.NewT(rng.Intn(1000)),
					Date:  stm.NewT(date),
					Conns: stm.NewT[[]*AtomicPart](nil),
					Owner: cp,
				}
				if _, err := b.AtomicIndex.Put(tx, uint64(atomicID), parts[i]); err != nil {
					return err
				}
				if err := b.bumpDateIndex(tx, date, +1); err != nil {
					return err
				}
			}
			// Ring plus random chords: every part reachable, degree
			// ConnectionsPerAtomic.
			for i, ap := range parts {
				conns := make([]*AtomicPart, 0, p.ConnectionsPerAtomic)
				conns = append(conns, parts[(i+1)%len(parts)])
				for len(conns) < p.ConnectionsPerAtomic {
					conns = append(conns, parts[rng.Intn(len(parts))])
				}
				if err := stm.WriteT(tx, ap.Conns, conns); err != nil {
					return err
				}
			}
			cp.Root = parts[0]
			cp.Parts = stm.NewT(parts)
			b.Composites[c] = cp
			_, err := b.CompositeIndex.Put(tx, uint64(cp.ID), cp)
			return err
		}); err != nil {
			return err
		}
	}
	b.nextAtomicID = stm.NewT(atomicID)

	// Assembly tree.
	baseID := int64(0)
	complexID := int64(0)
	var build func(level int) *ComplexAssembly
	build = func(level int) *ComplexAssembly {
		complexID++
		ca := &ComplexAssembly{ID: complexID, Level: level}
		if level == 2 {
			bases := make([]*BaseAssembly, p.AssemblyFanout)
			for i := range bases {
				baseID++
				comps := make([]*CompositePart, p.ComponentsPerAssembly)
				for j := range comps {
					comps[j] = b.Composites[rng.Intn(len(b.Composites))]
				}
				bases[i] = &BaseAssembly{
					ID:         baseID,
					Components: stm.NewT(comps),
				}
				b.Bases = append(b.Bases, bases[i])
			}
			ca.Bases = stm.NewT(bases)
			ca.Subs = stm.NewT[[]*ComplexAssembly](nil)
			return ca
		}
		subs := make([]*ComplexAssembly, p.AssemblyFanout)
		for i := range subs {
			subs[i] = build(level - 1)
		}
		ca.Subs = stm.NewT(subs)
		ca.Bases = stm.NewT[[]*BaseAssembly](nil)
		return ca
	}
	b.Root = build(p.AssemblyLevels)
	return nil
}

// TraverseToBase walks transactionally from the design root to a random
// base assembly, reading the child lists along the path (STMBench7's
// traversal entry; the shared upper levels are the benchmark's hottest
// read-set locality).
func (b *Benchmark) TraverseToBase(tx stm.Tx, rng *rand.Rand) (*BaseAssembly, error) {
	ca := b.Root
	for ca.Level > 2 {
		subs, err := stm.ReadT(tx, ca.Subs)
		if err != nil {
			return nil, err
		}
		if len(subs) == 0 {
			return nil, nil
		}
		ca = subs[rng.Intn(len(subs))]
	}
	bases, err := stm.ReadT(tx, ca.Bases)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return nil, nil
	}
	return bases[rng.Intn(len(bases))], nil
}

// TraverseToComposite walks root -> base assembly -> random composite part.
func (b *Benchmark) TraverseToComposite(tx stm.Tx, rng *rand.Rand) (*CompositePart, error) {
	ba, err := b.TraverseToBase(tx, rng)
	if err != nil || ba == nil {
		return nil, err
	}
	comps, err := readComponents(tx, ba)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return nil, nil
	}
	return comps[rng.Intn(len(comps))], nil
}

// bumpDateIndex adjusts the count of atomic parts carrying the given date.
func (b *Benchmark) bumpDateIndex(tx stm.Tx, date, delta int) error {
	count, _, err := b.DateIndex.Get(tx, uint64(date))
	if err != nil {
		return err
	}
	count += delta
	if count < 0 {
		count = 0
	}
	_, err = b.DateIndex.Put(tx, uint64(date), count)
	return err
}

// readParts reads a composite part's atomic slice.
func readParts(tx stm.Tx, cp *CompositePart) ([]*AtomicPart, error) {
	return stm.ReadT(tx, cp.Parts)
}

// readConns reads an atomic part's connection slice.
func readConns(tx stm.Tx, ap *AtomicPart) ([]*AtomicPart, error) {
	return stm.ReadT(tx, ap.Conns)
}

// readComponents reads a base assembly's composite slice.
func readComponents(tx stm.Tx, ba *BaseAssembly) ([]*CompositePart, error) {
	return stm.ReadT(tx, ba.Components)
}
