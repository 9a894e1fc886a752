// Package stamp provides Go kernels for the ten STAMP benchmark
// configurations the paper evaluates (bayes, genome, intruder, kmeans-high,
// kmeans-low, labyrinth, ssca2, vacation-high, vacation-low, yada).
//
// The original STAMP applications are full C programs; these kernels are
// behavioral reductions. A kernel may replace the application's data and
// computation with anything simpler, as long as it keeps what a TM
// scheduler sees of it: each transaction's length, the sizes of its read and
// write sets, and the place where transactions contend:
//
//   - bayes: long transactions with large read sets over a shared
//     dependency graph, occasional structural writes;
//   - genome: hash-set segment de-duplication plus chain stitching;
//   - intruder: a single shared packet queue (the paper's Figure 1(b)
//     motivation) feeding per-flow assembly and detection;
//   - kmeans: tiny read-modify-write transactions on K shared centroids
//     (high contention = few centroids, low = many);
//   - labyrinth: very long transactions claiming whole grid paths (large
//     write sets);
//   - ssca2: tiny writes at random slots of a large adjacency structure
//     (low contention);
//   - vacation: reservation transactions over red-black-tree tables
//     (high = narrow key range and write-heavy, low = wide and read-heavy);
//   - yada: worklist-driven cavity rewrites (queue + region writes).
package stamp

import (
	"fmt"

	"github.com/shrink-tm/shrink/internal/harness"
)

// Names lists the ten kernels in the paper's figure order.
func Names() []string {
	return []string{
		"bayes", "genome", "intruder", "kmeans-high", "kmeans-low",
		"labyrinth", "ssca2", "vacation-high", "vacation-low", "yada",
	}
}

// New returns the named kernel with its paper-shaped default parameters.
func New(name string) (harness.Workload, error) {
	switch name {
	case "bayes":
		return newBayes(), nil
	case "genome":
		return newGenome(), nil
	case "intruder":
		return newIntruder(), nil
	case "kmeans-high":
		return newKMeans(true), nil
	case "kmeans-low":
		return newKMeans(false), nil
	case "labyrinth":
		return newLabyrinth(), nil
	case "ssca2":
		return newSSCA2(), nil
	case "vacation-high":
		return newVacation(true), nil
	case "vacation-low":
		return newVacation(false), nil
	case "yada":
		return newYada(), nil
	default:
		return nil, fmt.Errorf("unknown STAMP kernel %q", name)
	}
}

// MustNew is New for static names in tests and benchmarks.
func MustNew(name string) harness.Workload {
	w, err := New(name)
	if err != nil {
		panic(err)
	}
	return w
}
