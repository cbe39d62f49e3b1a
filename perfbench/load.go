package main

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bot"
	"repro/internal/mlg/server"
	"repro/internal/mlg/world"
	"repro/internal/protocol"
)

const (
	// slot is each player's action period: one bot.Bot decision per game
	// tick budget, whether or not the server keeps up (open loop).
	slot = 50 * time.Millisecond
	// probeEvery is the chat-probe period of every real-TCP player.
	probeEvery = 100 * time.Millisecond
	// probeTimeout is how long a probe may stay unanswered before it counts
	// as failed.
	probeTimeout = time.Second
)

// actor is one emulated player: a bot.Bot decision stream plus where its
// packets go — a TCP client, or the server's inbox for in-process players.
type actor struct {
	bot *bot.Bot
	tcp *client
	srv *server.Server // in-process sink
	pid int64

	// Sharded load only: the split the player walks across, and the
	// once-a-second halo-column write.
	split     *splitWalk
	writeAt   int // slot offset of this player's write within each second
	writeSeq  int
	lastShard int
	queue     []queued // actions not yet sent, oldest first
}

type queued struct {
	pkt protocol.Packet
	due time.Time
	seq int // probe sequence number, 0 for other packets
}

// splitWalk describes the shard boundary a sharded-workload player walks
// across, in block X.
type splitWalk struct {
	boundaryX float64
	shardOf   func(x float64) int
}

// sentAction is one action as it went out, for generator health.
type sentAction struct {
	due, at time.Time
	inproc  bool
}

// generator drives every player from one goroutine on a fixed 50 ms
// schedule. Each action is timed from when it was due.
type generator struct {
	actors []*actor
	heap   *heapSampler

	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	decided   []time.Time // due time of every scheduled action
	sent      []sentAction
	crossings []time.Time
	sendErr   error
}

func newGenerator(actors []*actor, heap *heapSampler) *generator {
	return &generator{actors: actors, heap: heap, stop: make(chan struct{}), done: make(chan struct{})}
}

// start begins the schedule one slot from now.
func (g *generator) start() {
	go g.loop(time.Now().Add(slot))
}

// halt stops the schedule and waits for the goroutine to exit.
func (g *generator) halt() {
	close(g.stop)
	<-g.done
}

func (g *generator) loop(t0 time.Time) {
	defer close(g.done)
	timer := time.NewTimer(time.Until(t0))
	defer timer.Stop()
	next := t0
	for k := 0; ; {
		select {
		case <-g.stop:
			return
		case <-timer.C:
		}
		for now := time.Now(); !next.After(now); next = next.Add(slot) {
			for _, a := range g.actors {
				g.decide(a, next, k)
			}
			k++
		}
		g.flush()
		g.heap.sample()
		timer.Reset(time.Until(next))
	}
}

// decide appends the actor's actions for the slot due at `due`.
func (g *generator) decide(a *actor, due time.Time, k int) {
	n := len(a.queue)
	for _, pkt := range a.bot.Actions(due) {
		q := queued{pkt: pkt, due: due}
		if ch, ok := pkt.(*protocol.Chat); ok {
			q.seq, _ = probeSeq(ch.Text)
		}
		a.queue = append(a.queue, q)
	}
	if a.split != nil && k%20 == a.writeAt {
		// Dig or place in the halo column on the player's side of the
		// boundary: every write changes a mirrored chunk.
		x, _, z := a.bot.Position()
		side := a.split.shardOf(x)
		bx := int32(a.split.boundaryX) - 1
		if side == 1 {
			bx++
		}
		act := uint8(protocol.ActionDig)
		if a.writeSeq%2 == 1 {
			act = protocol.ActionPlace
		}
		a.writeSeq++
		a.queue = append(a.queue, queued{due: due, pkt: &protocol.PlayerAction{
			Action: act, X: bx, Y: 10, Z: int32(z), BlockID: uint8(world.Stone),
		}})
	}
	g.mu.Lock()
	for range a.queue[n:] {
		g.decided = append(g.decided, due)
	}
	g.mu.Unlock()
}

// flush sends each actor's queued actions in order. On the sharded load a
// move that crosses the boundary is a crossing the gateway re-routes; it
// goes out on schedule like every other action.
func (g *generator) flush() {
	for _, a := range g.actors {
		for _, q := range a.queue {
			now := time.Now()
			if mv, ok := q.pkt.(*protocol.PlayerMove); ok && a.split != nil {
				if s := a.split.shardOf(mv.X); s != a.lastShard {
					a.lastShard = s
					a.tcp.noteCrossing()
					g.mu.Lock()
					g.crossings = append(g.crossings, now)
					g.mu.Unlock()
				}
			}
			var err error
			switch {
			case a.srv != nil:
				a.srv.Enqueue(a.pid, q.pkt, now)
			case q.seq > 0:
				err = a.tcp.sendProbe(q.pkt.(*protocol.Chat), q.seq, q.due)
			default:
				err = a.tcp.send(q.pkt)
			}
			g.mu.Lock()
			g.sent = append(g.sent, sentAction{due: q.due, at: time.Now(), inproc: a.srv != nil})
			if err != nil && g.sendErr == nil {
				g.sendErr = err
			}
			g.mu.Unlock()
		}
		a.queue = a.queue[:0]
	}
}

// probeSeq parses the sequence number out of bot.Bot's probe text
// ("probe-000042").
func probeSeq(text string) (int, bool) {
	rest, ok := strings.CutPrefix(text, "probe-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

// view copies the generator's records.
func (g *generator) view() genView {
	g.mu.Lock()
	defer g.mu.Unlock()
	return genView{
		decided:   append([]time.Time(nil), g.decided...),
		sent:      append([]sentAction(nil), g.sent...),
		crossings: append([]time.Time(nil), g.crossings...),
		err:       g.sendErr,
	}
}

// genView is a consistent copy of the generator's records.
type genView struct {
	decided   []time.Time
	sent      []sentAction
	crossings []time.Time
	err       error
}
