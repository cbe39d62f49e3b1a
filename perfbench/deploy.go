package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bot"
	"repro/internal/env"
	"repro/internal/mlg/persist"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/shard"
	"repro/internal/workload"
)

const (
	// viewChunks is the view area a joining player is owed: (2·5+1)² chunk
	// columns at the default view distance.
	viewChunks = 121
	// lagScale is the paper's Lag world at Scale 2: two independent
	// machines, so two simulation regions.
	lagScale = 2
	// splitChunk is the sharded split, between the two lag machines (the
	// first spans chunk X -4..9, the second 28..41).
	splitChunk = 16
	// snapEvery and snapFullEvery give each shard several async snapshots
	// per run, every fourth one full.
	snapEvery     = 50
	snapFullEvery = 4
	joinTimeout   = 30 * time.Second
	// playersArea is the §3.4.1 walk area side. walkSide is the sharded
	// walk's: a random walk crosses a line at a rate inversely proportional
	// to the area's width and mixes in time proportional to its square, so
	// an 8-block square centred on the split gives every 30 s run tens of
	// re-routes, where a 32-block one gives some seeds none.
	playersArea = 32
	walkSide    = 8
)

// tickSample is what the after-tick hook saw for one tick on one node.
// The fields after rec are filled only while tracing is on.
type tickSample struct {
	rec       server.TickRecord
	hookStart time.Time
	sendEnd   time.Time // sharded: SendTick returned
	applyEnd  time.Time // sharded: ApplyTick returned
	hookEnd   time.Time
	net       server.NetTotals
	ghosts    int
	linkBytes int64
}

// node is one server.Server running its own wall-clock Run loop.
type node struct {
	d       *deployment
	srv     *server.Server
	ep      *shard.Endpoint
	runDone chan struct{}

	mu    sync.Mutex
	ticks []tickSample
	err   error // first SendTick/ApplyTick error
	reach map[int64]chan struct{}
}

// afterTick is the node's Hooks.AfterTick: it records the tick and, on a
// shard, runs the inter-shard exchange the way cmd/mlgserver -shard does.
func (n *node) afterTick(rec server.TickRecord) {
	tracing := n.d.tracing.Load()
	ts := tickSample{rec: rec}
	if tracing {
		ts.hookStart = time.Now()
	}
	if n.ep != nil {
		err := n.ep.SendTick(rec.Tick)
		if tracing {
			ts.sendEnd = time.Now()
		}
		if err == nil {
			err = n.ep.ApplyTick(rec.Tick)
		}
		if tracing {
			ts.applyEnd = time.Now()
			ts.ghosts = len(n.ep.Ghosts())
		}
		if err != nil && !n.d.stopping.Load() {
			n.mu.Lock()
			if n.err == nil {
				n.err = err
			}
			n.mu.Unlock()
		}
	}
	if tracing {
		ts.net = n.srv.NetTotals()
		ts.linkBytes = n.d.linkBytes.Load()
		ts.hookEnd = time.Now()
	}
	n.mu.Lock()
	n.ticks = append(n.ticks, ts)
	if ch := n.reach[rec.Tick]; ch != nil {
		close(ch)
		delete(n.reach, rec.Tick)
	}
	n.mu.Unlock()
}

// waitTick blocks until the node has completed tick t, or timeout.
func (n *node) waitTick(t int64, timeout time.Duration) bool {
	n.mu.Lock()
	if len(n.ticks) > 0 && n.ticks[len(n.ticks)-1].rec.Tick >= t {
		n.mu.Unlock()
		return true
	}
	ch := n.reach[t]
	if ch == nil {
		ch = make(chan struct{})
		n.reach[t] = ch
	}
	n.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

// exchangeErr returns the first SendTick/ApplyTick error.
func (n *node) exchangeErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// samples copies the node's tick samples.
func (n *node) samples() []tickSample {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]tickSample(nil), n.ticks...)
}

// deployment is one self-hosted system under test: one server, or two
// shards behind a gateway, plus the emulated players driving it.
type deployment struct {
	nodes   []*node
	clients []*client
	actors  []*actor
	setup   time.Duration
	started bool

	tracing   atomic.Bool
	stopping  atomic.Bool
	linkBytes atomic.Int64

	listeners []net.Listener
	mesh      []*countingListener
	storeDir  string
	bg        sync.WaitGroup // Serve loops
	closed    sync.Once
}

func newDeployment(tracing bool) *deployment {
	d := &deployment{}
	d.tracing.Store(tracing)
	return d
}

// newNode builds a server around w with the node's hook wired in.
func (d *deployment) newNode(w *world.World, cfg server.Config) *node {
	n := &node{d: d, runDone: make(chan struct{}), reach: make(map[int64]chan struct{})}
	cfg.Hooks.AfterTick = n.afterTick
	n.srv = server.New(w, cfg, nil, env.RealClock{})
	d.nodes = append(d.nodes, n)
	return n
}

// listen opens a loopback listener the deployment closes on teardown.
func (d *deployment) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.listeners = append(d.listeners, ln)
	return ln, nil
}

// serve runs s.Serve on a fresh loopback listener and returns its address.
func (d *deployment) serve(serve func(net.Listener) error) (string, error) {
	ln, err := d.listen()
	if err != nil {
		return "", err
	}
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		serve(ln)
	}()
	return ln.Addr().String(), nil
}

// run starts every node's tick loop.
func (d *deployment) run() {
	d.started = true
	for _, n := range d.nodes {
		go func(n *node) {
			defer close(n.runDone)
			n.srv.Run()
		}(n)
	}
}

// connect logs the TCP players in and waits for their view areas.
func (d *deployment) connect(addr string, n int) error {
	for i := 0; i < n; i++ {
		c, err := dial(addr, fmt.Sprintf("bench-%d", i), i, viewChunks)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, c)
	}
	for _, c := range d.clients {
		if err := c.waitView(joinTimeout); err != nil {
			return err
		}
	}
	return nil
}

// close tears everything down and waits for the tick loops to return.
func (d *deployment) close() { d.closed.Do(d.teardown) }

func (d *deployment) teardown() {
	d.stopping.Store(true)
	for _, c := range d.clients {
		c.close()
	}
	for _, n := range d.nodes {
		n.srv.Stop()
	}
	// A shard blocked on its peer's barrier wakes when the link closes.
	for _, m := range d.mesh {
		m.closeConns()
	}
	for _, ln := range d.listeners {
		ln.Close()
	}
	for _, n := range d.nodes {
		if d.started {
			<-n.runDone
		}
		if sn := n.srv.Snapshotter(); sn != nil {
			sn.Close()
		}
	}
	d.bg.Wait()
	if d.storeDir != "" {
		os.RemoveAll(d.storeDir)
	}
}

// playerBot returns the bot.Bot decision stream for player i.
func playerBot(seed int64, i int, behavior bot.Behavior, originX, originZ, baseY, side float64, probe bool) *bot.Bot {
	cfg := bot.Config{
		Name:        fmt.Sprintf("bench-%d", i),
		Behavior:    behavior,
		AreaOriginX: originX, AreaOriginZ: originZ, AreaSide: side,
		BaseY: baseY,
		Seed:  seed*1_000_003 + int64(i),
	}
	if probe {
		cfg.ProbeEvery = probeEvery
	}
	return bot.New(cfg)
}

// deployLag builds the paper's Lag world at Scale 2 on one server with
// one idle real-TCP player that probes.
func deployLag(seed int64, tracing bool) (*deployment, error) {
	d := newDeployment(tracing)
	t0 := time.Now()
	n := d.newNode(workload.NewWorld(workload.Lag, world.PaperControlSeed), server.DefaultConfig(server.Vanilla))
	spec := workload.Lag.DefaultSpec()
	spec.Scale = lagScale
	if err := workload.Install(n.srv, spec); err != nil {
		return d, err
	}
	addr, err := d.serve(n.srv.Serve)
	if err != nil {
		return d, err
	}
	d.run()
	if err := d.connect(addr, 1); err != nil {
		return d, err
	}
	d.setup = time.Since(t0)
	d.actors = []*actor{{bot: playerBot(seed, 0, bot.Idle, 0, 0, 11, 0, true), tcp: d.clients[0]}}
	return d, nil
}

// playersTCP is how many of the 25 players use real TCP; the rest are
// in-process.
const (
	playersTotal = 25
	playersTCP   = 2
)

// deployPlayers builds the §3.4.1 workload on Control terrain: 25 players
// random-walking in a 32×32 area, 2 of them over real TCP.
func deployPlayers(seed int64, tracing bool) (*deployment, error) {
	d := newDeployment(tracing)
	t0 := time.Now()
	w := workload.NewWorld(workload.Players, world.PaperControlSeed)
	n := d.newNode(w, server.DefaultConfig(server.Vanilla))
	// Walk at one height above the whole area so no move is rejected as
	// inside terrain.
	baseY := 0
	for x := 0; x <= 32; x++ {
		for z := 0; z <= 32; z++ {
			baseY = max(baseY, w.HighestSolidY(x, z)+1)
		}
	}
	addr, err := d.serve(n.srv.Serve)
	if err != nil {
		return d, err
	}
	d.run()
	for i := playersTCP; i < playersTotal; i++ {
		p := n.srv.Connect(fmt.Sprintf("bench-%d", i))
		d.actors = append(d.actors, &actor{
			bot: playerBot(seed, i, bot.RandomWalk, 0, 0, float64(baseY), playersArea, false),
			srv: n.srv, pid: p.ID,
		})
	}
	if err := d.connect(addr, playersTCP); err != nil {
		return d, err
	}
	d.setup = time.Since(t0)
	for i, c := range d.clients {
		d.actors = append(d.actors, &actor{
			bot: playerBot(seed, i, bot.RandomWalk, 0, 0, float64(baseY), playersArea, true), tcp: c,
		})
	}
	return d, nil
}

// deploySharded splits the Lag ×2 world between two shard servers linked
// by shard.ConnectMesh and fronted by shard.Gateway, the topology
// cmd/mlgserver -shard/-gateway deploys. Two real-TCP players walk across
// the split and write in the halo columns.
func deploySharded(seed int64, tracing bool, storeRoot string) (*deployment, error) {
	d := newDeployment(tracing)
	t0 := time.Now()
	smap := shard.Map{Splits: []int32{splitChunk}}
	d.storeDir = filepath.Join(storeRoot, fmt.Sprintf("snap-%d", os.Getpid()))
	spec := workload.Lag.DefaultSpec()
	spec.Scale = lagScale
	meshAddrs := make([]string, smap.Count())
	for i := 0; i < smap.Count(); i++ {
		st, err := persist.NewStore(filepath.Join(d.storeDir, fmt.Sprint(i)))
		if err != nil {
			return d, err
		}
		cfg := server.DefaultConfig(server.Vanilla)
		cfg.Shard = server.ShardConfig{Count: smap.Count(), Index: i, Owns: smap.Owns(i)}
		cfg.Persist = server.PersistConfig{Store: st, Every: snapEvery, FullEvery: snapFullEvery}
		n := d.newNode(workload.NewWorld(workload.Lag, world.PaperControlSeed), cfg)
		if err := workload.Install(n.srv, spec); err != nil {
			return d, err
		}
		n.ep = shard.NewEndpoint(n.srv, smap, i)
		ln, err := d.listen()
		if err != nil {
			return d, err
		}
		cl := &countingListener{Listener: ln, bytes: &d.linkBytes}
		d.mesh = append(d.mesh, cl)
		meshAddrs[i] = ln.Addr().String()
	}
	errs := make(chan error, len(d.nodes))
	for i, n := range d.nodes {
		go func(n *node, ln net.Listener) {
			errs <- shard.ConnectMesh(n.ep, ln, meshAddrs, joinTimeout)
		}(n, d.mesh[i])
	}
	for range d.nodes {
		if err := <-errs; err != nil {
			return d, err
		}
	}
	shardAddrs := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		addr, err := d.serve(n.srv.Serve)
		if err != nil {
			return d, err
		}
		shardAddrs[i] = addr
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{Map: smap, Addrs: shardAddrs})
	if err != nil {
		return d, err
	}
	gwAddr, err := d.serve(gw.Serve)
	if err != nil {
		return d, err
	}
	d.run()
	if err := d.connect(gwAddr, 2); err != nil {
		return d, err
	}
	d.setup = time.Since(t0)
	boundary := float64(splitChunk * world.ChunkSize)
	walk := &splitWalk{boundaryX: boundary, shardOf: func(x float64) int {
		return smap.ShardOfBlock(world.Pos{X: int(math.Floor(x))})
	}}
	// Player 0 probes and walks the last blocks of shard 0, inside its halo
	// column, so it never crosses: a re-route closes the old shard leg with
	// any echo still on it, and how many are lost depends on timing, not on
	// the seed. Player 1 walks across the split and does not probe; its
	// re-routes still lose ticks (gateway.reroute_tick_jumps).
	d.actors = append(d.actors,
		&actor{
			bot:   playerBot(seed, 0, bot.RandomWalk, boundary-walkSide, 8, 11, walkSide-1, true),
			tcp:   d.clients[0],
			split: walk, writeAt: 0,
		},
		&actor{
			bot:   playerBot(seed, 1, bot.RandomWalk, boundary-walkSide/2, 8, 11, walkSide, false),
			tcp:   d.clients[1],
			split: walk, writeAt: 10,
		})
	return d, nil
}

// countingListener counts every byte crossing the inter-shard links it
// accepts, in both directions.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, bytes: l.bytes}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
