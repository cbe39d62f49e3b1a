package entity

import (
	"math"
	"sort"

	"repro/internal/mlg/world"
)

// Spatial indexing for proximity queries. Entities are bucketed by the chunk
// column containing them (the same grid the terrain and the server's
// player-interest sets use), so hopper intake, blast impulses,
// activation-range checks and AI target finding scale with local density
// instead of the global entity population — the standard MLG-server
// optimization in the PaperMC lineage.
//
// Determinism contract: every query visits buckets in fixed (Z, X) grid
// order and entities in ascending-ID order within a bucket, so a query's
// visit sequence is a pure function of simulation state. Runs therefore
// stay byte-identical at any worker count (enforced by the golden-checksum
// suite in internal/core).

// spatialIndex buckets live entities by chunk column. Buckets are kept
// ID-sorted; entity IDs are monotonic, so steady-state insertion is an
// append and cross-chunk moves pay one binary-search insert.
type spatialIndex struct {
	buckets map[world.ChunkPos][]*Entity
}

func newSpatialIndex() *spatialIndex {
	return &spatialIndex{buckets: make(map[world.ChunkPos][]*Entity)}
}

// add inserts e into the bucket of e.chunk, preserving ID order.
func (si *spatialIndex) add(e *Entity) {
	b := si.buckets[e.chunk]
	i := sort.Search(len(b), func(i int) bool { return b[i].ID >= e.ID })
	b = append(b, nil)
	copy(b[i+1:], b[i:])
	b[i] = e
	si.buckets[e.chunk] = b
}

// remove deletes e from the bucket of e.chunk.
func (si *spatialIndex) remove(e *Entity) {
	b := si.buckets[e.chunk]
	i := sort.Search(len(b), func(i int) bool { return b[i].ID >= e.ID })
	if i >= len(b) || b[i] != e {
		return
	}
	b = append(b[:i], b[i+1:]...)
	if len(b) == 0 {
		delete(si.buckets, e.chunk)
	} else {
		si.buckets[e.chunk] = b
	}
}

// move rebuckets e into the chunk column at to.
func (si *spatialIndex) move(e *Entity, to world.ChunkPos) {
	si.remove(e)
	e.chunk = to
	si.add(e)
}

// chunkCoord returns the chunk-grid coordinate containing the continuous
// world coordinate v.
func chunkCoord(v float64) int32 {
	return int32(floorDivInt(int(math.Floor(v)), world.ChunkSize))
}

// forEachNear calls fn for every entity (live or pending removal) whose
// bucket intersects the horizontal bounding square of radius around center,
// in deterministic (Z, X, ID) order. Callers apply their own exact distance
// predicate; buckets are chunk columns, so the vertical extent is not
// pre-filtered.
func (ew *World) forEachNear(center Vec3, radius float64, fn func(*Entity)) {
	cx0, cx1 := chunkCoord(center.X-radius), chunkCoord(center.X+radius)
	cz0, cz1 := chunkCoord(center.Z-radius), chunkCoord(center.Z+radius)
	for cz := cz0; cz <= cz1; cz++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, e := range ew.index.buckets[world.ChunkPos{X: cx, Z: cz}] {
				fn(e)
			}
		}
	}
}

// playerGrid buckets one tick's player-position snapshot by chunk so
// per-entity "any player nearby?" checks iterate player-near buckets instead
// of scanning every player. Rebuilt each Tick; indices preserve the
// snapshot's deterministic player order.
type playerGrid struct {
	players []Vec3
	cells   map[world.ChunkPos][]int
}

func newPlayerGrid(players []Vec3) playerGrid {
	g := playerGrid{players: players}
	if len(players) == 0 {
		return g
	}
	g.cells = make(map[world.ChunkPos][]int, len(players))
	for i, p := range players {
		cp := world.ChunkPos{X: chunkCoord(p.X), Z: chunkCoord(p.Z)}
		g.cells[cp] = append(g.cells[cp], i)
	}
	return g
}

// anyStrictlyWithin reports whether any player lies strictly closer than r
// to pos (the natural-spawning 24-block exclusion predicate).
func (g playerGrid) anyStrictlyWithin(pos Vec3, r float64) bool {
	found := false
	g.forEachNear(pos, r, func(i int) {
		if !found && g.players[i].Dist(pos) < r {
			found = true
		}
	})
	return found
}

// firstWithin returns the lowest-index player within distance r of pos —
// identical to a linear scan over the snapshot taking the first match, which
// is what keeps AI target selection bit-compatible with the unindexed path.
func (g playerGrid) firstWithin(pos Vec3, r float64) (Vec3, bool) {
	best := -1
	g.forEachNear(pos, r, func(i int) {
		if (best < 0 || i < best) && g.players[i].Dist(pos) <= r {
			best = i
		}
	})
	if best < 0 {
		return Vec3{}, false
	}
	return g.players[best], true
}

// forEachNear calls fn with the index of every player whose cell intersects
// the bounding square of r around pos, in deterministic order.
func (g playerGrid) forEachNear(pos Vec3, r float64, fn func(i int)) {
	if len(g.cells) == 0 {
		return
	}
	cx0, cx1 := chunkCoord(pos.X-r), chunkCoord(pos.X+r)
	cz0, cz1 := chunkCoord(pos.Z-r), chunkCoord(pos.Z+r)
	for cz := cz0; cz <= cz1; cz++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, i := range g.cells[world.ChunkPos{X: cx, Z: cz}] {
				fn(i)
			}
		}
	}
}

// ChunkUpdates counts one chunk column's entity state updates over a tick.
// The server's dissemination phase fans each chunk's updates out only to
// players whose view distance covers it (interest management), instead of
// broadcasting every update to every player.
type ChunkUpdates struct {
	Pos                       world.ChunkPos
	Moved, Spawned, Despawned int
}

// DrainChunkUpdates returns and clears the per-chunk entity update counts
// accumulated since the last drain, sorted by (Z, X) for deterministic
// consumption.
func (ew *World) DrainChunkUpdates() []ChunkUpdates {
	if len(ew.chunkUpdates) == 0 {
		return nil
	}
	out := make([]ChunkUpdates, 0, len(ew.chunkUpdates))
	for cp, u := range ew.chunkUpdates {
		u.Pos = cp
		out = append(out, u)
		delete(ew.chunkUpdates, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Z != out[j].Pos.Z {
			return out[i].Pos.Z < out[j].Pos.Z
		}
		return out[i].Pos.X < out[j].Pos.X
	})
	return out
}

func (ew *World) noteMoved(cp world.ChunkPos) {
	u := ew.chunkUpdates[cp]
	u.Moved++
	ew.chunkUpdates[cp] = u
}

func (ew *World) noteSpawned(cp world.ChunkPos) {
	u := ew.chunkUpdates[cp]
	u.Spawned++
	ew.chunkUpdates[cp] = u
}

func (ew *World) noteDespawned(cp world.ChunkPos) {
	u := ew.chunkUpdates[cp]
	u.Despawned++
	ew.chunkUpdates[cp] = u
}
