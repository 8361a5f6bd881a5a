package main

// perLayer computes the per-layer metrics of a traced run. A layer that is
// not on this workload's path reports 0 with 0 samples and stat "n/a" —
// e.g. Sequitur on cluster-approx, checkpoints on offline-replay.
func (b *bench) perLayer() map[string]metric {
	out := make(map[string]metric)
	na := func(name, unit string) { out[name] = metric{0, unit, 0, "n/a"} }

	var events, bytes int64
	for _, ls := range b.layers {
		events += int64(ls.events)
		bytes += ls.bytes
	}
	// nsPerEvent: total time in a layer's calls over the events replayed
	// (per OMC for the translation).
	nsPerEvent := func(name, span string) {
		var ms float64
		var calls int
		var evs int64
		for _, ls := range b.layers {
			if c := ls.calls[span]; len(c) > 0 {
				ms += ls.totalMS(span)
				calls += len(c)
				n := int64(ls.events)
				if span == "omc.translate" {
					n *= int64(ls.omcs)
				}
				evs += n
			}
		}
		if calls == 0 || evs == 0 {
			na(name, "ns")
			return
		}
		out[name] = metric{ms * 1e6 / float64(evs), "ns", calls, "total"}
	}
	// perCall: median of one span's per-call durations.
	perCall := func(name, span string) {
		var all []float64
		for _, ls := range b.layers {
			all = append(all, ls.calls[span]...)
		}
		if len(all) == 0 {
			na(name, "ms")
			return
		}
		out[name] = metric{median(all), "ms", len(all), "p50"}
	}
	// perTrace: median over the replayed traces of a per-trace reading.
	perTrace := func(name, unit string, get func(*layerStats) float64) {
		var xs []float64
		for _, ls := range b.layers {
			if v := get(ls); v > 0 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			na(name, unit)
			return
		}
		out[name] = metric{median(xs), unit, len(xs), "median over traces"}
	}

	nsPerEvent("tracefmt.decode_ns_per_event", "tracefmt.decode")
	if events > 0 {
		out["tracefmt.bytes_per_event"] = metric{float64(bytes) / float64(events), "B", len(b.layers), "total"}
	} else {
		na("tracefmt.bytes_per_event", "B")
	}

	nsPerEvent("omc.translate_ns_per_event", "omc.translate")
	var translated, unmapped uint64
	for _, ls := range b.layers {
		translated += ls.translated
		unmapped += ls.unmapped
	}
	if translated > 0 {
		out["omc.unmapped_ratio"] = metric{float64(unmapped) / float64(translated), "ratio", int(translated), "total"}
	} else {
		na("omc.unmapped_ratio", "ratio")
	}
	perTrace("omc.footprint_bytes", "B", func(ls *layerStats) float64 { return float64(ls.omcFoot) })

	nsPerEvent("whomp.consume_ns_per_event", "whomp.consume")
	nsPerEvent("whomp.parallel_ns_per_event", "whomp.parallel")
	perCall("whomp.encode_ms", "whomp.encode")
	perTrace("whomp.footprint_bytes", "B", func(ls *layerStats) float64 { return float64(ls.whompFoot) })
	perTrace("sequitur.rules", "count", func(ls *layerStats) float64 { return float64(ls.rules) })
	perTrace("sequitur.symbols", "count", func(ls *layerStats) float64 { return float64(ls.symbols) })

	nsPerEvent("leap.consume_ns_per_event", "leap.consume")
	perCall("leap.build_ms", "leap.build")
	perCall("leap.encode_ms", "leap.encode")

	nsPerEvent("stride.emit_ns_per_event", "stride.emit")

	nsPerEvent("sketch.emit_ns_per_event", "sketch.emit")
	perTrace("govern.footprint_bytes", "B", func(ls *layerStats) float64 { return float64(ls.governFoot) })

	perCall("checkpoint.snapshot_ms", "checkpoint.snapshot")
	perCall("checkpoint.encode_ms", "checkpoint.encode")
	b.saveMS(out)
	var sizes []float64
	for _, ls := range b.layers {
		sizes = append(sizes, ls.ckptBytes...)
	}
	if len(sizes) > 0 {
		out["checkpoint.bytes"] = metric{median(sizes), "B", len(sizes), "p50"}
		out["checkpoint.count"] = metric{float64(len(sizes)), "count", len(b.layers), "total over replayed traces"}
	} else {
		na("checkpoint.bytes", "B")
		na("checkpoint.count", "count")
	}

	b.serveMetrics(out)
	if b.router != nil {
		out["router.overhead_ms"] = *b.router
	} else {
		na("router.overhead_ms", "ms")
	}
	if b.merge != nil {
		out["merge.ms"] = metric{float64(b.mergeDur) / 1e6, "ms", 1, "single"}
		out["merge.sessions"] = metric{float64(b.merge.Sessions), "count", 1, "single"}
	} else {
		na("merge.ms", "ms")
		na("merge.sessions", "count")
	}

	var done int64
	for _, s := range b.completed() {
		done += int64(s.in.events)
	}
	if done > 0 {
		out["runtime.alloc_bytes_per_event"] = metric{float64(b.rt1.allocBytes-b.rt0.allocBytes) / float64(done), "B", len(b.sessions), "total"}
	} else {
		na("runtime.alloc_bytes_per_event", "B")
	}
	if cpu := b.rt1.totalCPU - b.rt0.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_fraction"] = metric{(b.rt1.gcCPU - b.rt0.gcCPU) / cpu, "ratio", 1, "total"}
	} else {
		na("runtime.gc_cpu_fraction", "ratio")
	}
	return out
}

// saveMS reports checkpoint.save_ms: per checkpoint, the encode plus the
// atomic write — the two halves of checkpoint.Save.
func (b *bench) saveMS(out map[string]metric) {
	var all []float64
	for _, ls := range b.layers {
		enc, wr := ls.calls["checkpoint.encode"], ls.calls["checkpoint.write"]
		for i := range wr {
			all = append(all, enc[i]+wr[i])
		}
	}
	if len(all) == 0 {
		out["checkpoint.save_ms"] = metric{0, "ms", 0, "n/a"}
		return
	}
	out["checkpoint.save_ms"] = metric{median(all), "ms", len(all), "p50"}
}

// replayMS is a replayed trace's total layer time: what the session's
// pipeline cost with nothing else running.
func (ls *layerStats) replayMS() float64 {
	var t float64
	for name := range ls.calls {
		t += ls.totalMS(name)
	}
	return t
}

// serveMetrics reports the client-side numbers of the daemon workloads.
func (b *bench) serveMetrics(out map[string]metric) {
	if b.w.toFile {
		for _, n := range []string{"serve.push_ms", "serve.remainder_ms"} {
			out[n] = metric{0, "ms", 0, "n/a"}
		}
		for _, n := range []string{"serve.retries", "serve.frames_resent"} {
			out[n] = metric{0, "count", 0, "n/a"}
		}
		return
	}
	replayed := make(map[string]float64)
	for _, ls := range b.layers {
		replayed[ls.name] = ls.replayMS()
	}
	var pushes, rest []float64
	var retries, resent int
	for _, s := range b.completed() {
		d := float64(s.dur) / 1e6
		pushes = append(pushes, d)
		rest = append(rest, d-replayed[s.in.name])
		retries += s.stats.Retries
		resent += s.stats.FramesSent - len(s.in.frames)
	}
	n := len(pushes)
	out["serve.push_ms"] = metric{median(pushes), "ms", n, "p50"}
	out["serve.remainder_ms"] = metric{median(rest), "ms", n, "p50 of push − replayed layers"}
	out["serve.retries"] = metric{float64(retries), "count", n, "total"}
	out["serve.frames_resent"] = metric{float64(resent), "count", n, "total"}
}

// shares builds the layer-share table. Offline jobs are split by their
// real child spans; daemon sessions by the replayed layers, each trace's
// replay weighted by how many timed sessions pushed it.
func (b *bench) shares() []shareRow {
	var weight map[string]float64
	remainder := "job (other)"
	if !b.w.toFile {
		remainder = "serve.remainder"
		weight = make(map[string]float64)
		for _, s := range b.completed() {
			weight[s.in.name]++
		}
	}
	rows := layerShares(b.tr.snapshot(), "session", "replay", weight, remainder)
	out := rows[:0]
	for _, r := range rows {
		if r.SelfMS != 0 || r.Layer == remainder {
			out = append(out, r)
		}
	}
	return out
}
