package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

const (
	// A gateway re-route may cause one TimeUpdate discontinuity within
	// rerouteTUs TimeUpdates of the re-routed stream's start. Forward, it
	// skips the ticks that were still on the closed leg or not yet on the
	// new one, at most maxRerouteSkip (one probe timeout at 20 Hz).
	// Backward, it repeats at most maxRerouteRepeat: the shards tick in
	// barrier lockstep, and a frame the old leg's relay still held can
	// arrive just after the new stream's first.
	rerouteTUs       = 3
	maxRerouteSkip   = 20
	maxRerouteRepeat = 2
)

// rxTick is the traffic one client received for one server tick: every
// frame between the previous TimeUpdate and the tick's own TimeUpdate,
// which the server writes last in each per-player tick batch.
type rxTick struct {
	frames, bytes, blockChanges, entityFrames int64
}

func (r rxTick) add(o rxTick) rxTick {
	return rxTick{r.frames + o.frames, r.bytes + o.bytes, r.blockChanges + o.blockChanges, r.entityFrames + o.entityFrames}
}

// probe is one chat response-time probe, timed from when it was due.
type probe struct {
	seq      int
	due      time.Time
	sent     time.Time
	text     string
	sentNano int64
	echoed   time.Time // zero while unanswered
}

// client is one real-TCP player. It speaks the wire protocol itself so it
// can check and count everything the server streams to it: the view-area
// burst, the TimeUpdate sequence, entity delta references and probe echoes.
type client struct {
	name  string
	index int
	conn  *protocol.Conn

	loginMS   float64 // handshake sent → LoginSuccess
	joinMS    float64 // LoginSuccess → whole view area received
	owedChunk int

	done     chan struct{} // closed when the read loop exits
	closing  atomic.Bool
	dropErr  error // why the read loop ended early; valid after done
	sentPkts atomic.Int64

	mu         sync.Mutex
	chunks     int
	viewDone   chan struct{}
	cur        rxTick
	rx         map[int64]rxTick
	lastTick   int64
	gaps       int64    // TimeUpdate ticks never seen
	gapNotes   []string // where they were, for the failure message
	violations []string
	known      map[int32]bool
	probes     map[int]*probe
	// Gateway re-routes, sharded load only. Every stream, the first and
	// each re-routed one, starts with the view-area burst: each chunk of the
	// area once. burst holds the current burst's chunks; pending counts
	// requested crossings whose re-routed stream has not started; excuses
	// holds, per started re-routed stream, the TimeUpdates left in which
	// it may excuse one discontinuity.
	burst   map[[2]int32]bool
	pending int
	excuses []int
	jumps   int64 // ticks skipped or repeated by re-routed streams
}

// dial logs a player in and starts its read loop. owed is the number of
// chunk columns the server owes a joining player (its view area).
func dial(addr, name string, index, owed int) (*client, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		name: name, index: index, conn: protocol.NewConn(raw),
		owedChunk: owed,
		done:      make(chan struct{}),
		viewDone:  make(chan struct{}),
		rx:        make(map[int64]rxTick),
		known:     make(map[int32]bool),
		burst:     make(map[[2]int32]bool),
		probes:    make(map[int]*probe),
	}
	t0 := time.Now()
	if _, err := c.conn.WritePacket(&protocol.Handshake{Version: protocol.ProtocolVersion}); err != nil {
		c.conn.Close()
		return nil, fmt.Errorf("%s: handshake: %w", name, err)
	}
	if _, err := c.conn.WritePacket(&protocol.Login{Name: name}); err != nil {
		c.conn.Close()
		return nil, fmt.Errorf("%s: login: %w", name, err)
	}
	pkt, _, err := c.conn.ReadPacket()
	if err != nil {
		c.conn.Close()
		return nil, fmt.Errorf("%s: login reply: %w", name, err)
	}
	if _, ok := pkt.(*protocol.LoginSuccess); !ok {
		c.conn.Close()
		return nil, fmt.Errorf("%s: expected LoginSuccess, got %#x", name, int32(pkt.ID()))
	}
	loggedIn := time.Now()
	c.loginMS = ms(loggedIn.Sub(t0))
	go c.readLoop(loggedIn)
	return c, nil
}

// waitView blocks until the whole owed view area has arrived.
func (c *client) waitView(timeout time.Duration) error {
	select {
	case <-c.viewDone:
		return nil
	case <-c.done:
		return fmt.Errorf("%s: connection lost during join: %v", c.name, c.dropErr)
	case <-time.After(timeout):
		return fmt.Errorf("%s: view area incomplete after %v", c.name, timeout)
	}
}

func (c *client) readLoop(loggedIn time.Time) {
	defer close(c.done)
	for {
		pkt, n, err := c.conn.ReadPacket()
		if err != nil {
			if !c.closing.Load() {
				c.dropErr = err
			}
			return
		}
		now := time.Now()
		c.mu.Lock()
		c.cur.frames++
		c.cur.bytes += int64(n)
		if protocol.EntityRelated(pkt) {
			c.cur.entityFrames++
		}
		switch p := pkt.(type) {
		case *protocol.BlockChange:
			c.cur.blockChanges++
		case *protocol.ChunkData:
			c.noteChunk(p)
			c.chunks++
			if c.chunks == c.owedChunk {
				c.joinMS = ms(now.Sub(loggedIn))
				close(c.viewDone)
			}
		case *protocol.TimeUpdate:
			c.noteTick(p.Tick)
		case *protocol.EntityMove:
			c.known[p.EntityID] = true
		case *protocol.SpawnEntity:
			c.known[p.EntityID] = true
		case *protocol.EntityMoveRel:
			if !c.known[p.EntityID] {
				c.violatef("EntityMoveRel for entity %d never fully moved or already destroyed", p.EntityID)
			}
		case *protocol.DestroyEntity:
			delete(c.known, p.EntityID)
		case *protocol.Chat:
			if p.Sender == c.name {
				c.noteEcho(p, now)
			}
		case *protocol.KeepAlive:
			c.mu.Unlock()
			c.send(p)
			continue
		case *protocol.Disconnect:
			c.dropErr = fmt.Errorf("server disconnected: %s", p.Reason)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// noteTick closes the current tick's traffic tally and checks the
// TimeUpdate sequence. A discontinuity is a gap unless a gateway re-route
// the client itself requested explains it: the new shard's stream starts
// wherever that shard's clock stands. Caller holds mu.
func (c *client) noteTick(t int64) {
	c.rx[t] = c.rx[t].add(c.cur)
	c.cur = rxTick{}
	next := c.lastTick + 1
	switch {
	case c.lastTick == 0 || t == next:
	case len(c.excuses) > 0 && t >= next-maxRerouteRepeat && t <= next+maxRerouteSkip:
		c.excuses = c.excuses[1:]
		c.jumps += max(t-next, next-t)
	case t > next:
		c.gaps += t - next
		if len(c.gapNotes) < 4 {
			c.gapNotes = append(c.gapNotes, fmt.Sprintf("%s: ticks %d–%d (%d re-route excuses open)", c.name, next, t-1, len(c.excuses)))
		}
	default:
		c.violatef("TimeUpdate went from tick %d back to %d", c.lastTick, t)
	}
	kept := c.excuses[:0]
	for _, left := range c.excuses {
		if left > 1 {
			kept = append(kept, left-1)
		}
	}
	c.excuses = kept
	c.lastTick = t
}

// noteChunk tracks view-area bursts. A burst that begins while a crossing
// is pending, on a finished burst or by repeating a chunk of the current
// one, is a re-routed stream's: its entity IDs are the new shard's, and it
// may excuse one TimeUpdate discontinuity. Caller holds mu.
func (c *client) noteChunk(p *protocol.ChunkData) {
	pos := [2]int32{p.ChunkX, p.ChunkZ}
	if c.pending > 0 && (len(c.burst) == 0 || c.burst[pos]) {
		c.pending--
		clear(c.burst)
		clear(c.known)
		c.excuses = append(c.excuses, rerouteTUs)
	}
	c.burst[pos] = true
	if len(c.burst) == c.owedChunk {
		clear(c.burst)
	}
}

// noteEcho completes a probe. Caller holds mu.
func (c *client) noteEcho(p *protocol.Chat, now time.Time) {
	seq, ok := probeSeq(p.Text)
	if !ok {
		c.violatef("echo %q is not a probe", p.Text)
		return
	}
	pr := c.probes[seq]
	switch {
	case pr == nil:
		c.violatef("echo of probe %d that was never sent", seq)
	case pr.text != p.Text || pr.sentNano != p.SentUnixNano:
		c.violatef("probe %d echo differs from what was sent", seq)
	case !pr.echoed.IsZero():
		c.violatef("probe %d echoed twice", seq)
	default:
		pr.echoed = now
	}
}

func (c *client) violatef(format string, args ...any) {
	if len(c.violations) < 8 {
		c.violations = append(c.violations, c.name+": "+fmt.Sprintf(format, args...))
	}
}

// send writes one packet; the Conn serialises concurrent writers.
func (c *client) send(p protocol.Packet) error {
	c.sentPkts.Add(1)
	_, err := c.conn.WritePacket(p)
	return err
}

// sendProbe records and sends a chat probe.
func (c *client) sendProbe(ch *protocol.Chat, seq int, due time.Time) error {
	c.mu.Lock()
	c.probes[seq] = &probe{seq: seq, due: due, sent: time.Now(), text: ch.Text, sentNano: ch.SentUnixNano}
	c.mu.Unlock()
	return c.send(ch)
}

// noteCrossing records a boundary crossing the client is about to request:
// the gateway will re-route it to the other shard.
func (c *client) noteCrossing() {
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
}

// alive reports whether the connection is still up.
func (c *client) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// close hangs up and waits for the read loop to end.
func (c *client) close() {
	c.closing.Store(true)
	c.conn.Close()
	<-c.done
}

// snapshot copies what the analysis needs, under the lock.
func (c *client) snapshot() clientView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := clientView{
		name: c.name, index: c.index, loginMS: c.loginMS, joinMS: c.joinMS,
		rx:         make(map[int64]rxTick, len(c.rx)),
		gaps:       c.gaps,
		gapNotes:   append([]string(nil), c.gapNotes...),
		jumps:      c.jumps,
		violations: append([]string(nil), c.violations...),
		sentPkts:   c.sentPkts.Load(),
	}
	for t, r := range c.rx {
		v.rx[t] = r
	}
	for _, p := range c.probes {
		v.probes = append(v.probes, *p)
	}
	return v
}

// clientView is a consistent copy of one client's observations.
type clientView struct {
	name       string
	index      int
	loginMS    float64
	joinMS     float64
	rx         map[int64]rxTick
	gaps       int64
	gapNotes   []string
	jumps      int64
	violations []string
	probes     []probe
	sentPkts   int64
}
