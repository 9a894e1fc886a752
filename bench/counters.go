package main

// The cumulative counters the layers under a tkv workload keep for
// themselves, plus two the callers keep.
const (
	cCommits = iota
	cAborts
	cROFallbacks
	cSerializations
	cWaitsShared
	cWaitsExcl
	cWalAppends
	cWalFsyncs
	cWalBytes
	cDevWrites
	cDevSyncs
	cDevBytes
	cErrFrames
	cUserBytes
	nCounters
)

// kvCounters is one reading of them.
type kvCounters [nCounters]float64

func (w *kvWorkload) readCounters() kvCounters {
	st := w.st.Stats()
	c := kvCounters{
		cCommits: float64(st.Commits), cAborts: float64(st.Aborts),
		cROFallbacks: float64(st.ROFallbacks), cSerializations: float64(st.Serializations),
		cWaitsShared: float64(st.StripeWaitsShared), cWaitsExcl: float64(st.StripeWaitsExcl),
	}
	if st.Wal != nil {
		c[cWalAppends], c[cWalFsyncs], c[cWalBytes] = float64(st.Wal.Appends), float64(st.Wal.Fsyncs), float64(st.Wal.BytesAppended)
		dev := w.fs.Counters()
		c[cDevWrites], c[cDevSyncs], c[cDevBytes] = float64(dev.Writes), float64(dev.Syncs), float64(dev.Bytes)
	}
	for _, cl := range w.all {
		c[cErrFrames] += float64(cl.errFrames)
		c[cUserBytes] += float64(cl.userBytes)
	}
	return c
}

// counters reports what the layers counted between the end of set-up and
// now, over ops issued ops.
func (w *kvWorkload) counters(values map[string]float64, ops float64) {
	d := w.readCounters()
	for i := range d {
		d[i] -= w.start[i]
	}
	values["tkv.abort_ratio"] = d[cAborts] / max(d[cCommits]+d[cAborts], 1)
	values["tkv.ro_fallbacks"] = d[cROFallbacks]
	values["tkv.serializations"] = d[cSerializations]
	values["sched.serialized_frac"] = d[cSerializations] / max(d[cCommits], 1)
	values["keylock.waits_shared"] = d[cWaitsShared]
	values["keylock.waits_excl"] = d[cWaitsExcl]
	values["keylock.wait_frac"] = (d[cWaitsShared] + d[cWaitsExcl]) / ops
	values["tkvwire.err_frames"] = d[cErrFrames]
	if !w.shape.durable {
		return
	}
	values["tkvwal.appends"] = d[cWalAppends]
	values["tkvwal.fsyncs"] = d[cWalFsyncs]
	values["tkvwal.group_mean"] = d[cWalAppends] / max(d[cWalFsyncs], 1)
	values["tkvwal.bytes_per_user_byte"] = d[cWalBytes] / max(d[cUserBytes], 1)
	values["tkvwal.pending_peak_bytes"] = float64(w.st.WAL().Stats().PendingPeakBytes)
	values["device.writes"] = d[cDevWrites]
	values["device.syncs"] = d[cDevSyncs]
	values["device.bytes_written"] = d[cDevBytes]
	values["device.write_bytes_mean"] = d[cDevBytes] / max(d[cDevWrites], 1)
}
