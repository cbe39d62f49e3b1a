// Command perfbench is the repository benchmark: it self-hosts the real MLG
// engine in-process on loopback — server.New + Serve + Run on a wall clock,
// or two shards linked by shard.ConnectMesh behind a shard.Gateway — drives
// it with the paper's player emulation over real TCP, checks what comes
// back, and prints the paper's end-to-end metrics (tick time, tick rate,
// ISR, chat-probe response time) plus CPU, heap and set-up time.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload lag|players|sharded --seed N --seconds S --trace 0|1
//
// With --trace 1 the run first measures a traced window, recording spans
// and per-layer counts, then an untraced one; it prints the per-layer
// metrics and the tracing overhead on every end-to-end metric, and writes
// the spans to .bench_build/perfbench/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/mlg/server"
)

const (
	// warmTick is the last warm-up tick; measuring starts once it completes.
	warmTick = 100
	// countFirst..countLast is the tick window per-layer counts are taken
	// over, so that deterministic counts repeat exactly.
	countFirst, countLast = 101, 300
	// setupRuns is how many times a run sets the system up; setup_s is the
	// median and the last set-up is the one measured.
	setupRuns = 3
	// lagBlockUpdates is sim.BlockUpdates summed over ticks 101–300 of the
	// Lag ×2 world: the terrain engine is deterministic, so the deployed
	// wall-clock path must reproduce it exactly at any worker count.
	lagBlockUpdates = 6_192_000
	outDir          = ".bench_build/perfbench"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "lag, players or sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the player emulation")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func deployer(name string) (func(seed int64, tracing bool) (*deployment, error), error) {
	switch name {
	case "lag":
		return deployLag, nil
	case "players":
		return deployPlayers, nil
	case "sharded":
		return func(seed int64, tracing bool) (*deployment, error) {
			return deploySharded(seed, tracing, outDir)
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want lag, players or sharded)", name)
}

// observed is everything a run collected, copied out before teardown.
type observed struct {
	opts     options
	setups   []setupSample
	win      []window // [0] traced when opts.trace, [1] untraced
	nodes    [][]tickSample
	clients  []clientView
	gen      genView
	heap     *heapSampler
	players  int
	chunks   [2]int               // loaded, generated
	persist  [2]int               // snapshots written, skipped in the first window
	outbound server.OutboundStats // summed over the nodes at the end
	failures []string
}

type setupSample struct {
	s      float64
	traced bool
}

// window is one measured interval and the process CPU time spent in it.
type window struct {
	a, b     time.Time
	cpu      time.Duration
	sentPkts int64 // client→server packets sent by TCP players
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	deploy, err := deployer(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Every wait is bounded so that a run ends within three minutes even
	// on a program too slow to reach its tick windows.
	deadline := time.Now().Add(170 * time.Second)
	obs := &observed{opts: o}
	var d *deployment
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
			runtime.GC()
		}
		// A traced run alternates traced and untraced set-ups, ending on a
		// traced one, so set-up gets a tracing-overhead figure too.
		traced := o.trace && i%2 == 0
		if d, err = deploy(o.seed, traced); err != nil {
			d.close()
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		obs.setups = append(obs.setups, setupSample{s: d.setup.Seconds(), traced: traced})
	}
	defer d.close()

	// A traced run splits its time between the traced and the untraced
	// window, so it takes as long as an untraced one.
	span := time.Duration(o.seconds) * time.Second
	if o.trace {
		span /= 2
	}
	measured := time.Duration(o.seconds)*time.Second + probeTimeout

	obs.heap = newHeapSampler()
	gen := newGenerator(d.actors, obs.heap)
	gen.start()
	n0 := d.nodes[0]
	if !n0.waitTick(warmTick, time.Until(deadline)-measured) {
		gen.halt()
		return fmt.Errorf("tick %d not reached in time", warmTick)
	}
	edge := func() window {
		w := window{a: time.Now(), cpu: cpuTime()}
		for _, c := range d.clients {
			w.sentPkts += c.sentPkts.Load()
		}
		return w
	}
	measure := func() window {
		start := edge()
		time.Sleep(time.Until(start.a.Add(span)))
		end := edge()
		return window{a: start.a, b: end.a, cpu: end.cpu - start.cpu, sentPkts: end.sentPkts - start.sentPkts}
	}
	persistA := d.persistStats()
	obs.win = append(obs.win, measure())
	persistB := d.persistStats()
	obs.persist = [2]int{persistB[0] - persistA[0], persistB[1] - persistA[1]}
	if o.trace {
		// Keep tracing until the per-layer tick window is complete, then
		// measure the untraced window the overhead is taken against.
		if !n0.waitTick(countLast+1, time.Until(deadline)-span-probeTimeout) {
			obs.failures = append(obs.failures, fmt.Sprintf("tick %d not reached", countLast+1))
		}
		d.tracing.Store(false)
		obs.win = append(obs.win, measure())
	}
	// Let the last probes due in the window answer, and make sure the
	// per-layer tick window is complete.
	time.Sleep(probeTimeout)
	if !n0.waitTick(countLast+1, time.Until(deadline)) {
		obs.failures = append(obs.failures, fmt.Sprintf("tick %d not reached", countLast+1))
	}
	gen.halt()

	obs.gen = gen.view()
	for _, n := range d.nodes {
		obs.nodes = append(obs.nodes, n.samples())
		if err := n.exchangeErr(); err != nil {
			obs.failures = append(obs.failures, "shard exchange: "+err.Error())
		}
		if sn := n.srv.Snapshotter(); sn != nil && sn.Err() != nil {
			obs.failures = append(obs.failures, "snapshotter: "+sn.Err().Error())
		}
		if crashed, why := n.srv.Crashed(); crashed {
			obs.failures = append(obs.failures, "server crashed: "+why)
		}
		obs.players += n.srv.PlayerCount()
		o := n.srv.Outbound()
		obs.outbound.DroppedBatches += o.DroppedBatches
		obs.outbound.Keyframes += o.Keyframes
		obs.outbound.WriteDisconnects += o.WriteDisconnects
		gen, _, _ := n.srv.World().Stats()
		obs.chunks[0] += n.srv.World().ChunkCount()
		obs.chunks[1] += gen
	}
	for _, c := range d.clients {
		if !c.alive() {
			obs.failures = append(obs.failures, fmt.Sprintf("%s disconnected: %v", c.name, c.dropErr))
		}
		obs.clients = append(obs.clients, c.snapshot())
	}
	if obs.gen.err != nil {
		obs.failures = append(obs.failures, "generator send: "+obs.gen.err.Error())
	}
	d.close()

	rep := analyse(obs)
	rep.print(os.Stdout)
	if o.trace {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		n, err := writeSpans(path, obs)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", n, path)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// persistStats sums Snapshotter.Stats over the nodes: written, skipped.
func (d *deployment) persistStats() [2]int {
	var s [2]int
	for _, n := range d.nodes {
		if sn := n.srv.Snapshotter(); sn != nil {
			w, k := sn.Stats()
			s[0] += w
			s[1] += k
		}
	}
	return s
}
