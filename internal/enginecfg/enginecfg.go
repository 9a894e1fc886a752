// Package enginecfg maps textual engine, scheduler and wait-policy names to
// constructed TM stacks. It is the single place where the names accepted on
// command lines (and in the tkv server's configuration) are interpreted, and
// it provides the uniform -stm/-wait flag pair that every benchmark binary
// under cmd/ registers through AddFlags.
package enginecfg

import (
	"flag"
	"fmt"

	"github.com/shrink-tm/shrink/internal/cm"
	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

// Engine names.
const (
	EngineSwiss = "swiss"
	EngineTiny  = "tiny"
)

// Scheduler names.
const (
	SchedNone   = "none"
	SchedShrink = "shrink"
	SchedATS    = "ats"
	SchedPool   = "pool"
)

// Spec names one engine/scheduler/wait combination. The zero value is the
// paper's base system: SwissTM, no scheduler, preemptive waiting.
type Spec struct {
	Engine    string
	Scheduler string
	// Wait selects the waiting policy; 0 uses the engine's paper setting
	// (SwissTM: preemptive, TinySTM: busy).
	Wait stm.WaitPolicy
	// Shrink overrides the Shrink parameters (nil = paper values).
	Shrink *sched.ShrinkConfig
	// TrackAccuracy turns on prediction-accuracy instrumentation for
	// Shrink runs (Figure 3 instrumentation; adds per-read bookkeeping).
	TrackAccuracy bool
}

// Build constructs the TM for a spec. Every scheduler counts its serialized
// starts in the threads' contexts, so the TM's Stats report them; the
// *sched.Shrink is returned, non-nil only when the spec names shrink, for
// the prediction-accuracy counters only Shrink has.
func Build(spec Spec) (stm.TM, *sched.Shrink, error) {
	var scheduler stm.Scheduler = stm.NopScheduler{}
	var shrink *sched.Shrink
	switch spec.Scheduler {
	case SchedNone, "":
	case SchedShrink:
		sc := sched.DefaultShrinkConfig()
		if spec.Shrink != nil {
			sc = *spec.Shrink
		}
		if spec.TrackAccuracy {
			sc.Predict.TrackAccuracy = true
			sc.EagerPrediction = true
		}
		shrink = sched.NewShrink(sc)
		scheduler = shrink
	case SchedATS:
		scheduler = sched.NewATS()
	case SchedPool:
		scheduler = sched.NewPool()
	default:
		return nil, nil, fmt.Errorf("unknown scheduler %q", spec.Scheduler)
	}
	switch spec.Engine {
	case EngineSwiss, "":
		wait := spec.Wait
		if wait == 0 {
			wait = stm.WaitPreemptive
		}
		return swiss.New(swiss.Options{Scheduler: scheduler, CM: &cm.Greedy{}, Wait: wait}), shrink, nil
	case EngineTiny:
		wait := spec.Wait
		if wait == 0 {
			wait = stm.WaitBusy
		}
		return tiny.New(tiny.Options{Scheduler: scheduler, CM: cm.Suicide{}, Wait: wait}), shrink, nil
	default:
		return nil, nil, fmt.Errorf("unknown engine %q", spec.Engine)
	}
}

// ParseWait maps a -wait flag value to a policy. The empty string means
// "engine default" and parses to 0.
func ParseWait(s string) (stm.WaitPolicy, error) {
	switch s {
	case "":
		return 0, nil
	case "preemptive":
		return stm.WaitPreemptive, nil
	case "busy":
		return stm.WaitBusy, nil
	default:
		return 0, fmt.Errorf("unknown wait policy %q", s)
	}
}

// DefaultWait returns the paper's waiting policy for an engine (the one a
// zero Spec.Wait resolves to).
func DefaultWait(engine string) stm.WaitPolicy {
	if engine == EngineTiny {
		return stm.WaitBusy
	}
	return stm.WaitPreemptive
}

// WaitLabel names the effective policy of a possibly-zero WaitPolicy for an
// engine, for table titles and log lines.
func WaitLabel(wait stm.WaitPolicy, engine string) string {
	if wait != 0 {
		return wait.String()
	}
	return DefaultWait(engine).String()
}

// EngineFlags is the uniform -stm/-wait flag pair shared by the cmd/
// binaries. Register it with AddFlags and read it after fs.Parse.
type EngineFlags struct {
	engine *string
	wait   *string
}

// AddFlags registers -stm and -wait on fs with the shared names, defaults
// and help strings.
func AddFlags(fs *flag.FlagSet) *EngineFlags {
	return &EngineFlags{
		engine: fs.String("stm", EngineSwiss, "STM engine: swiss or tiny"),
		wait:   fs.String("wait", "", "waiting policy: preemptive or busy (default: engine's)"),
	}
}

// Engine returns the parsed engine name.
func (f *EngineFlags) Engine() string { return *f.engine }

// WaitPolicy returns the parsed wait policy (0 when the flag was not given).
func (f *EngineFlags) WaitPolicy() (stm.WaitPolicy, error) { return ParseWait(*f.wait) }

// WaitLabel names the effective wait policy for the parsed engine.
func (f *EngineFlags) WaitLabel() string {
	w, err := ParseWait(*f.wait)
	if err != nil {
		return *f.wait
	}
	return WaitLabel(w, *f.engine)
}
