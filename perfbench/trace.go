package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. ID is the tick number or the probe
// sequence number; Span and Parent link the tree.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Node    int    `json:"node"` // server/shard index, or client index for probes
	Span    int    `json:"span"`
	Parent  int    `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spans builds the trace of the traced window from what the hook and the
// clients recorded in memory: server.tick (start to next start) with its
// busy part, the shard exchange and snapshot capture as children, and each
// probe from due through sent to echoed.
func spans(obs *observed) []span {
	w := obs.win[0]
	var out []span
	add := func(name string, id int64, node, parent int, a, b time.Time) int {
		out = append(out, span{Name: name, ID: id, Node: node, Span: len(out) + 1, Parent: parent,
			StartUS: a.UnixMicro(), EndUS: b.UnixMicro()})
		return len(out)
	}
	for i, ns := range obs.nodes {
		for j := 0; j+1 < len(ns); j++ {
			s, next := ns[j], ns[j+1]
			if s.hookEnd.IsZero() || !inWindow(s.rec.Start, w) {
				continue
			}
			t := s.rec.Tick
			root := add("server.tick", t, i, 0, s.rec.Start, next.rec.Start)
			add("server.busy", t, i, root, s.rec.Start, s.rec.Start.Add(s.rec.Dur))
			if !s.sendEnd.IsZero() {
				add("shard.send", t, i, root, s.hookStart, s.sendEnd)
				add("shard.apply", t, i, root, s.sendEnd, s.applyEnd)
			}
			if len(obs.nodes) > 1 && t%snapEvery == 0 {
				add("persist.capture", t, i, root, s.hookEnd, next.rec.Start)
			}
		}
	}
	for _, c := range obs.clients {
		for _, p := range c.probes {
			if !inWindow(p.due, w) {
				continue
			}
			end := p.echoed
			if end.IsZero() {
				end = p.due.Add(probeTimeout)
			}
			root := add("probe", int64(p.seq), c.index, 0, p.due, end)
			add("probe.send", int64(p.seq), c.index, root, p.due, p.sent)
			if !p.echoed.IsZero() {
				add("probe.echo", int64(p.seq), c.index, root, p.sent, p.echoed)
			}
		}
	}
	return out
}

// writeSpans writes the trace as JSON lines and returns the span count.
func writeSpans(path string, obs *observed) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	ss := spans(obs)
	for _, s := range ss {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(ss), f.Close()
}
