package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/mlg/server"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	samples    int
	note       string // why the figure is unavailable on this workload
}

// gated are the end-to-end metrics the JSON result carries for an
// untraced run; BENCHMARK.json bounds each. The rest are printed but not
// gated: isr and probe_fail_share are 0 on most runs, so no share of their
// median bounds them, and the tick-time percentiles of millisecond ticks swing by up to a third from
// run to run on a 2-vCPU host (see README.md), wider than any usable bound;
// cpu_ms_per_tick and tick_hz carry the tick's cost instead.
var gated = []string{
	"tick_hz", "chat_rtt_ms_p50", "chat_rtt_ms_p95", "cpu_ms_per_tick", "heap_peak_mb", "setup_s",
}

// jsonInf stands in for an infinite response time (an unanswered probe) in
// the JSON result, which has no infinity.
const jsonInf = 1e9

type report struct {
	o         options
	e2e       [][]metric // one list per window
	layer     []metric
	genLine   string
	setupLine string
	failures  []string
	attempted int
	failed    int
}

// mtick is one tick merged across the nodes that ran it: the slower
// node's duration, counters summed, as shard.Cluster merges records.
type mtick struct {
	tick  int64
	start time.Time // node 0
	dur   time.Duration
	rec   server.TickRecord
	per   []tickSample
}

func mergeTicks(nodes [][]tickSample) []mtick {
	byTick := make(map[int64][]tickSample)
	for _, ns := range nodes {
		for _, s := range ns {
			byTick[s.rec.Tick] = append(byTick[s.rec.Tick], s)
		}
	}
	var out []mtick
	for t, per := range byTick {
		if len(per) != len(nodes) {
			continue
		}
		m := mtick{tick: t, start: per[0].rec.Start, rec: per[0].rec, per: per}
		m.dur = m.rec.Dur
		for _, s := range per[1:] {
			r := s.rec
			m.dur = max(m.dur, r.Dur)
			m.rec.Entities += r.Entities
			m.rec.Backlog += r.Backlog
			m.rec.Sim = m.rec.Sim.Add(r.Sim)
			m.rec.Ent = m.rec.Ent.Add(r.Ent)
			m.rec.SimRegions += r.SimRegions
			m.rec.SimParallel = m.rec.SimParallel || r.SimParallel
			m.rec.EntParallel = m.rec.EntParallel || r.EntParallel
			m.rec.NetQueuedBytes += r.NetQueuedBytes
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tick < out[j].tick })
	return out
}

func inWindow(t time.Time, w window) bool { return !t.Before(w.a) && t.Before(w.b) }

// e2e computes the end-to-end metrics over one window.
func e2e(obs *observed, ticks []mtick, w window, setups []float64) ([]metric, int, int) {
	var durs []time.Duration
	var tms []float64
	for _, t := range ticks {
		if inWindow(t.start, w) {
			durs = append(durs, t.dur)
			tms = append(tms, ms(t.dur))
		}
	}
	secs := w.b.Sub(w.a).Seconds()
	var rtts []float64
	failed := 0
	for _, c := range obs.clients {
		for _, p := range c.probes {
			if !inWindow(p.due, w) {
				continue
			}
			if p.echoed.IsZero() || p.echoed.Sub(p.due) > probeTimeout {
				rtts = append(rtts, math.Inf(1))
				failed++
				continue
			}
			rtts = append(rtts, ms(p.echoed.Sub(p.due)))
		}
	}
	n := len(tms)
	heapMB, heapN := obs.heap.peakMB(w.a, w.b)
	out := []metric{
		{name: "tick_ms_p50", unit: "ms", value: pct(tms, 50), samples: n},
		{name: "tick_ms_p95", unit: "ms", value: pct(tms, 95), samples: n},
		{name: "tick_hz", unit: "Hz", value: float64(n) / secs, samples: n},
		{name: "isr", unit: "ratio", value: metrics.ISRTrace(durs, w.b.Sub(w.a)), samples: n},
		{name: "chat_rtt_ms_p50", unit: "ms", value: pct(rtts, 50), samples: len(rtts)},
		{name: "chat_rtt_ms_p95", unit: "ms", value: pct(rtts, 95), samples: len(rtts)},
		{name: "probe_fail_share", unit: "ratio", value: share(failed, len(rtts)), samples: len(rtts)},
		{name: "cpu_ms_per_tick", unit: "ms", value: float64(w.cpu) / float64(time.Millisecond) / float64(max(n, 1)), samples: n},
		{name: "heap_peak_mb", unit: "MB", value: heapMB, samples: heapN},
		{name: "setup_s", unit: "s", value: median(setups), samples: len(setups)},
	}
	return out, len(rtts), failed
}

func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// analyse turns the observations into metrics and correctness verdicts.
func analyse(obs *observed) *report {
	r := &report{o: obs.opts, failures: obs.failures, setupLine: "set-ups (s):"}
	for _, s := range obs.setups {
		r.setupLine += fmt.Sprintf(" %.4f", s.s)
		if s.traced {
			r.setupLine += " (traced)"
		}
	}
	ticks := mergeTicks(obs.nodes)
	for i, w := range obs.win {
		var setups []float64
		for _, s := range obs.setups {
			if !obs.opts.trace || s.traced == (i == 0) {
				setups = append(setups, s.s)
			}
		}
		ms, attempted, failed := e2e(obs, ticks, w, setups)
		r.e2e = append(r.e2e, ms)
		if i == 0 {
			r.attempted, r.failed = attempted, failed
		}
	}
	var cw []mtick // the per-layer tick window
	for _, t := range ticks {
		if t.tick >= countFirst && t.tick <= countLast {
			cw = append(cw, t)
		}
	}
	r.checkGenerator(obs)
	r.check(obs, cw)
	if obs.opts.trace && len(cw) > 0 {
		r.layer = layerMetrics(obs, ticks, cw, r.e2e)
	}
	return r
}

// genStats summarises the generator over a window: actions intended (due
// in it) and offered (sent in it), and how late the actions due in it went
// out.
type genStats struct {
	intended, offered int
	late              []float64
}

func genHealth(g genView, w window) genStats {
	var st genStats
	for _, d := range g.decided {
		if inWindow(d, w) {
			st.intended++
		}
	}
	for _, s := range g.sent {
		if inWindow(s.at, w) {
			st.offered++
		}
		if inWindow(s.due, w) {
			st.late = append(st.late, ms(s.at.Sub(s.due)))
		}
	}
	return st
}

// checkGenerator reports offered against intended load and marks a run
// whose generator fell behind: a late generator offers a lighter load, and
// that must never pass for a faster system.
func (r *report) checkGenerator(obs *observed) {
	st := genHealth(obs.gen, obs.win[0])
	lateP95 := pct(st.late, 95)
	ratio := share(st.offered, st.intended)
	verdict := "ok"
	if ratio < 0.95 || lateP95 > ms(slot) {
		verdict = "BEHIND"
		r.failures = append(r.failures, fmt.Sprintf(
			"generator fell behind: offered %d of %d intended actions, late p95 %.1f ms", st.offered, st.intended, lateP95))
	}
	r.genLine = fmt.Sprintf("generator: offered %d of %d intended actions (%.3f), late p95 %.2f ms: %s",
		st.offered, st.intended, ratio, lateP95, verdict)
}

// check applies the correctness checks that fail the run.
func (r *report) check(obs *observed, cw []mtick) {
	fail := func(format string, args ...any) { r.failures = append(r.failures, fmt.Sprintf(format, args...)) }
	var gaps, drops int64
	var notes []string
	for _, c := range obs.clients {
		gaps += c.gaps
		notes = append(notes, c.gapNotes...)
		for _, v := range c.violations {
			fail("%s", v)
		}
	}
	drops = obs.outbound.DroppedBatches
	if gaps > drops {
		fail("clients missed %d TimeUpdate ticks but the server dropped only %d batches: %s", gaps, drops, strings.Join(notes, "; "))
	}
	if len(cw) != countLast-countFirst+1 {
		fail("tick window %d–%d incomplete: %d ticks", countFirst, countLast, len(cw))
		return
	}
	switch obs.opts.workload {
	case "lag":
		var updates int
		var regions []float64
		for _, t := range cw {
			updates += t.rec.Sim.BlockUpdates
			regions = append(regions, float64(t.rec.SimRegions))
		}
		if updates != lagBlockUpdates {
			fail("sim.BlockUpdates over ticks %d–%d = %d, want %d", countFirst, countLast, updates, lagBlockUpdates)
		}
		if median(regions) < 2 {
			fail("lag ran %.0f sim regions, want at least 2", median(regions))
		}
	case "players":
		if obs.players != playersTotal {
			fail("%d players connected, want %d", obs.players, playersTotal)
		}
	case "sharded":
		for i := range obs.nodes {
			updates := 0
			for _, t := range cw {
				updates += t.per[i].rec.Sim.BlockUpdates
			}
			if updates == 0 {
				fail("shard %d did no sim work over ticks %d–%d", i, countFirst, countLast)
			}
		}
	}
}

// layerMetrics computes the per-layer metrics of a traced run: counts over
// the tick window, timings over it or over the traced time window.
func layerMetrics(obs *observed, ticks []mtick, cw []mtick, e2e [][]metric) []metric {
	w := obs.win[0]
	nw := float64(len(cw))
	wTicks := 0
	for _, t := range ticks {
		if inWindow(t.start, w) {
			wTicks++
		}
	}
	sharded := obs.opts.workload == "sharded"
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, samples: n})
	}
	na := func(name, unit, why string) {
		out = append(out, metric{name: name, unit: unit, note: why})
	}
	perTick := func(f func(server.TickRecord) int) float64 {
		sum := 0
		for _, t := range cw {
			sum += f(t.rec)
		}
		return float64(sum) / nw
	}
	dist := func(f func(mtick) float64) []float64 {
		var xs []float64
		for _, t := range cw {
			xs = append(xs, f(t))
		}
		return xs
	}
	boolShare := func(f func(server.TickRecord) bool) float64 {
		n := 0
		for _, t := range cw {
			if f(t.rec) {
				n++
			}
		}
		return float64(n) / nw
	}
	// perNode collects a per-tick figure from every node's samples over the
	// tick window; next is the node's sample for the following tick.
	perNode := func(f func(s, next tickSample) (float64, bool)) []float64 {
		var xs []float64
		for _, t := range cw {
			for i, s := range t.per {
				next, ok := nodeTick(obs.nodes[i], t.tick+1)
				if !ok {
					continue
				}
				if v, ok := f(s, next); ok {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	first, last := cw[0], cw[len(cw)-1]
	prev := func(i int) tickSample { s, _ := nodeTick(obs.nodes[i], first.tick-1); return s }

	// server
	wait := perNode(func(s, next tickSample) (float64, bool) {
		return ms(next.rec.Start.Sub(s.rec.Start) - s.rec.Dur), true
	})
	add("server.wait_ms_p50", "ms", median(wait), len(wait))
	inproc := 0
	for _, s := range obs.gen.sent {
		if s.inproc && inWindow(s.at, w) {
			inproc++
		}
	}
	add("server.inbox_pkts_per_tick", "count", float64(w.sentPkts+int64(inproc))/float64(max(wTicks, 1)), wTicks)
	var msgs, bytes int64
	for i := range obs.nodes {
		l := last.per[i]
		msgs += l.net.Msgs - prev(i).net.Msgs
		bytes += l.net.Bytes - prev(i).net.Bytes
	}
	outs := obs.outbound
	add("server.out_msgs_per_tick", "count", float64(msgs)/nw, len(cw))
	add("server.out_bytes_per_tick", "B", float64(bytes)/nw, len(cw))
	q := dist(func(t mtick) float64 { return float64(t.rec.NetQueuedBytes) })
	add("server.queued_bytes_p95", "B", pct(q, 95), len(q))
	add("server.net_drops", "count", float64(outs.DroppedBatches), 1)
	add("server.keyframes", "count", float64(outs.Keyframes), 1)
	add("server.write_disconnects", "count", float64(outs.WriteDisconnects), 1)
	var login, join []float64
	for _, c := range obs.clients {
		login = append(login, c.loginMS)
		join = append(join, c.joinMS)
	}
	if sharded {
		na("server.login_ms", "ms", "players log in through the gateway: see gateway.login_ms")
	} else {
		add("server.login_ms", "ms", median(login), len(login))
	}
	add("server.join_ms", "ms", median(join), len(join))

	// sim
	add("sim.block_updates_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Sim.BlockUpdates }), len(cw))
	add("sim.redstone_ops_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Sim.RedstoneOps }), len(cw))
	add("sim.block_add_remove_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Sim.BlockAdds + r.Sim.BlockRemoves }), len(cw))
	add("sim.light_scans_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Sim.LightScans }), len(cw))
	bl := dist(func(t mtick) float64 { return float64(t.rec.Backlog) })
	add("sim.backlog_p95", "count", pct(bl, 95), len(bl))
	rg := dist(func(t mtick) float64 { return float64(t.rec.SimRegions) })
	add("sim.regions_p50", "count", median(rg), len(rg))
	add("sim.parallel_share", "ratio", boolShare(func(r server.TickRecord) bool { return r.SimParallel }), len(cw))

	// entity
	ec := dist(func(t mtick) float64 { return float64(t.rec.Entities) })
	add("entity.count_p50", "count", median(ec), len(ec))
	add("entity.mob_ticks_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Ent.MobTicks }), len(cw))
	add("entity.path_nodes_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Ent.PathNodes }), len(cw))
	add("entity.collisions_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Ent.Collisions }), len(cw))
	add("entity.moved_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Ent.Moved }), len(cw))
	add("entity.spawn_attempts_per_tick", "count", perTick(func(r server.TickRecord) int { return r.Ent.SpawnAttempts }), len(cw))
	add("entity.parallel_share", "ratio", boolShare(func(r server.TickRecord) bool { return r.EntParallel }), len(cw))

	// protocol, per client connection
	var rx rxTick
	var gaps int64
	for _, c := range obs.clients {
		for t := first.tick; t <= last.tick; t++ {
			x := c.rx[t]
			rx.frames += x.frames
			rx.bytes += x.bytes
			rx.blockChanges += x.blockChanges
			rx.entityFrames += x.entityFrames
		}
		gaps += c.gaps
	}
	per := nw * float64(len(obs.clients))
	add("protocol.rx_frames_per_tick", "count", float64(rx.frames)/per, len(cw))
	add("protocol.rx_bytes_per_tick", "B", float64(rx.bytes)/per, len(cw))
	add("protocol.rx_block_change_per_tick", "count", float64(rx.blockChanges)/per, len(cw))
	add("protocol.rx_entity_frames_per_tick", "count", float64(rx.entityFrames)/per, len(cw))
	add("protocol.tick_gaps", "count", float64(max(0, gaps-outs.DroppedBatches)), len(obs.clients))

	// world
	add("world.chunks_loaded", "count", float64(obs.chunks[0]), 1)
	add("world.chunks_generated", "count", float64(obs.chunks[1]), 1)

	// persist, shard and gateway exist only in the sharded deployment.
	if !sharded {
		why := "only the sharded workload runs shards, snapshots and a gateway"
		for _, m := range [][2]string{
			{"persist.capture_ms_p50", "ms"}, {"persist.written", "count"}, {"persist.skipped", "count"},
			{"shard.send_ms_p50", "ms"}, {"shard.send_ms_p95", "ms"}, {"shard.apply_ms_p50", "ms"},
			{"shard.apply_ms_p95", "ms"}, {"shard.skew_ms_p95", "ms"}, {"shard.link_bytes_per_tick", "B"},
			{"shard.ghosts_p50", "count"}, {"gateway.login_ms", "ms"}, {"gateway.crossings_per_min", "1/min"},
			{"gateway.reroute_tick_jumps", "count"},
		} {
			na(m[0], m[1], why)
		}
	} else {
		var snapGap, otherGap []float64
		perNode(func(s, next tickSample) (float64, bool) {
			gap := ms(next.rec.Start.Sub(s.hookEnd))
			if s.rec.Tick%snapEvery == 0 {
				snapGap = append(snapGap, gap)
			} else {
				otherGap = append(otherGap, gap)
			}
			return 0, false
		})
		add("persist.capture_ms_p50", "ms", median(snapGap)-median(otherGap), len(snapGap))
		add("persist.written", "count", float64(obs.persist[0]), 1)
		add("persist.skipped", "count", float64(obs.persist[1]), 1)
		send := perNode(func(s, _ tickSample) (float64, bool) { return ms(s.sendEnd.Sub(s.hookStart)), true })
		apply := perNode(func(s, _ tickSample) (float64, bool) { return ms(s.applyEnd.Sub(s.sendEnd)), true })
		add("shard.send_ms_p50", "ms", median(send), len(send))
		add("shard.send_ms_p95", "ms", pct(send, 95), len(send))
		add("shard.apply_ms_p50", "ms", median(apply), len(apply))
		add("shard.apply_ms_p95", "ms", pct(apply, 95), len(apply))
		skew := dist(func(t mtick) float64 { return math.Abs(ms(t.per[0].rec.Start.Sub(t.per[1].rec.Start))) })
		add("shard.skew_ms_p95", "ms", pct(skew, 95), len(skew))
		add("shard.link_bytes_per_tick", "B", float64(last.per[0].linkBytes-prev(0).linkBytes)/nw, len(cw))
		var ghosts []float64
		for _, t := range cw {
			for _, s := range t.per {
				ghosts = append(ghosts, float64(s.ghosts))
			}
		}
		add("shard.ghosts_p50", "count", median(ghosts), len(ghosts))
		add("gateway.login_ms", "ms", median(login), len(login))
		crossings := 0
		for _, c := range obs.gen.crossings {
			if inWindow(c, w) {
				crossings++
			}
		}
		add("gateway.crossings_per_min", "1/min", float64(crossings)/w.b.Sub(w.a).Minutes(), crossings)
		var jumps int64
		for _, c := range obs.clients {
			jumps += c.jumps
		}
		add("gateway.reroute_tick_jumps", "count", float64(jumps), len(obs.clients))
	}

	// gen: the benchmark's own health
	gs := genHealth(obs.gen, w)
	add("gen.late_ms_p95", "ms", pct(gs.late, 95), len(gs.late))
	add("gen.offered_pkts_per_tick", "count", float64(gs.offered)/float64(max(wTicks, 1)), wTicks)

	// The end-to-end metrics no bound gates, from the traced window, and
	// the tracing overhead on every end-to-end metric: traced window
	// against the untraced one that follows it.
	for _, m := range e2e[0] {
		if !slices.Contains(gated, m.name) {
			out = append(out, m)
		}
	}
	for i, m := range e2e[0] {
		u := e2e[1][i].value
		ov := 0.0
		if u != 0 && !math.IsInf(u, 0) && !math.IsInf(m.value, 0) {
			ov = m.value/u - 1
		}
		add("trace.overhead."+m.name, "ratio", ov, m.samples)
	}
	return out
}

// nodeTick finds a node's sample for tick t.
func nodeTick(ns []tickSample, t int64) (tickSample, bool) {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].rec.Tick >= t })
	if i < len(ns) && ns[i].rec.Tick == t {
		return ns[i], true
	}
	return tickSample{}, false
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, the generator's health and any failed check.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.o.workload, r.o.seed, r.o.seconds, r.o.trace)
	for i, ms := range r.e2e {
		label := "end-to-end"
		if r.o.trace {
			label = [2]string{"end-to-end, traced window", "end-to-end, untraced window"}[i]
		}
		fmt.Fprintf(w, "-- %s\n", label)
		for _, m := range ms {
			printMetric(w, m)
		}
	}
	if len(r.layer) > 0 {
		fmt.Fprintf(w, "-- per-layer (ticks %d–%d, traced window)\n", countFirst, countLast)
		for _, m := range r.layer {
			printMetric(w, m)
		}
	}
	fmt.Fprintln(w, r.setupLine)
	fmt.Fprintln(w, r.genLine)
	fmt.Fprintf(w, "probes: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
}

func printMetric(w io.Writer, m metric) {
	if m.note != "" {
		fmt.Fprintf(w, "  %-34s %14s %-6s unavailable: %s\n", m.name, "-", m.unit, m.note)
		return
	}
	fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result is the last line of output: the gated end-to-end metrics of an
// untraced run, or every per-layer metric of a traced one.
func (r *report) result() jsonResult {
	res := jsonResult{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	put := func(m metric) {
		v := m.value
		if math.IsInf(v, 1) {
			v = jsonInf
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	if r.o.trace {
		for _, m := range r.layer {
			put(m)
		}
		return res
	}
	for _, m := range r.e2e[0] {
		if slices.Contains(gated, m.name) {
			put(m)
		}
	}
	return res
}
