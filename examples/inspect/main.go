// Inspect: look *inside* the scheduling dynamics instead of at raw
// throughput. The example runs the contended red-black tree under the base
// TinySTM and under Shrink-TinySTM with tracing enabled, and prints the
// retry distributions (the paper's "wasted work") plus operation-latency
// histograms; then it renders the theory side as an ASCII Gantt chart of
// Serializer versus Restart on the Figure 2(a) instance.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/microbench"
	"github.com/shrink-tm/shrink/internal/schedsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== Wasted work under overload: base TinySTM vs Shrink-TinySTM ==")
	fmt.Println("red-black tree, 70% updates, 16 threads on 8 emulated cores")
	fmt.Println()
	for _, scheduler := range []string{enginecfg.SchedNone, enginecfg.SchedShrink} {
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineTiny,
			Scheduler: scheduler,
			Threads:   16,
			Duration:  250 * time.Millisecond,
			Cores:     8,
			Seed:      5,
			Trace:     true,
		}, func() harness.Workload { return microbench.NewRBTree(4096, 70) })
		if err != nil {
			return err
		}
		fmt.Printf("[%s] tx/s = %.0f\n", scheduler, res.Throughput)
		fmt.Printf("[%s] retries: %s\n", scheduler, res.Retries.Summary())
		fmt.Printf("[%s] op latency (us): %s\n", scheduler, res.OpLatency.String())
		fmt.Println(res.OpLatency.Bars(36))
	}

	fmt.Println("== Theory, drawn: Figure 2(a) with n = 8 ==")
	ins := schedsim.SerializerLowerBound(8)
	fmt.Println("Serializer chains everything behind T2:")
	fmt.Print(schedsim.Gantt(ins, schedsim.SimulateSerializer(ins)))
	fmt.Println()
	fmt.Println("Restart aborts on each release and reschedules optimally:")
	fmt.Print(schedsim.Gantt(ins, schedsim.SimulateRestart(ins, ins)))
	return nil
}
