package microbench_test

import (
	"strings"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/microbench"
)

// TestROLookupsWorkloads drives both set workloads with their lookup share
// running as read-only snapshot transactions, through the harness, on both
// engines: the mix must commit work and the workload name must carry the
// -ro marker so RO and update-path runs never land in the same table
// column.
func TestROLookupsWorkloads(t *testing.T) {
	workloads := []struct {
		name  string
		build func() harness.Workload
	}{
		{"rbtree", func() harness.Workload {
			w := microbench.NewRBTree(512, 20)
			w.ROLookups = true
			return w
		}},
		{"skiplist", func() harness.Workload {
			w := microbench.NewSkipListSet(512, 20)
			w.ROLookups = true
			return w
		}},
	}
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		for _, wl := range workloads {
			t.Run(engine+"/"+wl.name, func(t *testing.T) {
				res, err := harness.Run(harness.Config{
					Engine:   engine,
					Threads:  4,
					Duration: 60 * time.Millisecond,
					Seed:     1,
				}, wl.build)
				if err != nil {
					t.Fatal(err)
				}
				if res.Commits == 0 {
					t.Fatal("RO-lookup workload committed nothing")
				}
				if !strings.HasSuffix(res.Workload, "-ro") {
					t.Fatalf("workload name %q lacks the -ro marker", res.Workload)
				}
			})
		}
	}
}
