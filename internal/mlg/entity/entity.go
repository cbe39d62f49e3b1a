// Package entity implements the entity substrate of the MLG engine — the
// Entities element of the paper's operational model (Figure 4, component 6)
// and the workload source of §2.2.3: mobs with AI and pathfinding over
// mutable terrain, item entities pushed around by fluids, primed TNT, and
// dynamic spawn-point computation.
//
// The paper finds entity processing to dominate non-idle tick time (MF4);
// this package is instrumented so the server can attribute that cost tick by
// tick, and implements the PaperMC entity-activation-range optimization that
// explains Paper's smaller entity share in Figure 11.
package entity

import (
	"math"

	"repro/internal/mlg/world"
)

// Type enumerates the entity kinds the engine simulates.
type Type uint8

// Entity kinds.
const (
	// Mob is a hostile NPC: it wanders, pathfinds, and can be farmed.
	Mob Type = iota
	// Item is a dropped resource entity, created by harvesting and
	// explosions, moved by fluid streams, absorbed by hoppers.
	Item
	// PrimedTNT is an ignited TNT charge counting down its fuse.
	PrimedTNT
)

// String returns the entity kind's name.
func (t Type) String() string {
	switch t {
	case Mob:
		return "mob"
	case Item:
		return "item"
	case PrimedTNT:
		return "tnt"
	default:
		return "unknown"
	}
}

// Vec3 is a continuous position or velocity in world space.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Scale returns v scaled by f.
func (v Vec3) Scale(f float64) Vec3 { return Vec3{v.X * f, v.Y * f, v.Z * f} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Dist returns the distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Len() }

// BlockPos returns the block position containing v.
func (v Vec3) BlockPos() world.Pos {
	return world.Pos{X: int(math.Floor(v.X)), Y: int(math.Floor(v.Y)), Z: int(math.Floor(v.Z))}
}

// Center returns the continuous position at the centre of a block.
func Center(p world.Pos) Vec3 {
	return Vec3{X: float64(p.X) + 0.5, Y: float64(p.Y), Z: float64(p.Z) + 0.5}
}

// Entity is one simulated object in the world.
type Entity struct {
	// ID is the unique, monotonically assigned entity identifier.
	ID int64
	// Kind is the entity type.
	Kind Type
	// Pos is the entity's position (feet) and Vel its velocity, both in
	// blocks (per tick for velocity).
	Pos, Vel Vec3
	// OnGround reports whether the entity rested on a solid block after its
	// last physics step.
	OnGround bool
	// Age is the entity's lifetime in ticks.
	Age int
	// Dead marks the entity for removal at the end of the tick.
	Dead bool

	// ItemType is the dropped block type (Item entities).
	ItemType world.BlockID
	// Fuse is the remaining fuse in ticks (PrimedTNT entities).
	Fuse int

	// path is the mob's current A* path, pathIdx the next waypoint.
	path    []world.Pos
	pathIdx int
	// pathVersions records the terrain version of each chunk the path
	// crosses at computation time; a mismatch forces a repath — the
	// dynamic pathfinding-graph recomputation of §2.2.3.
	pathVersions map[world.ChunkPos]uint64
	// wanderCooldown ticks down between AI decisions.
	wanderCooldown int

	// seedKey is the entity's spawn identity: a pure function of the world
	// seed and the entity's spawn position and tick, assigned once at add()
	// and carried across shard handoffs. Decision streams and the throttle
	// phase key on it instead of the store-local ID, so an entity behaves
	// identically whichever shard simulates it and whatever local ID that
	// shard assigned. Never zero for a live entity.
	seedKey uint64

	// chunk is the spatial-index bucket currently holding the entity,
	// maintained by the store as the entity moves.
	chunk world.ChunkPos
	// activeTick is the last tick the activation-range sweep found a player
	// near this entity; entities not marked in the current tick are
	// throttled (the inverted PaperMC activation check).
	activeTick int64
}

// HasPath reports whether the mob is currently following a path.
func (e *Entity) HasPath() bool { return e.path != nil && e.pathIdx < len(e.path) }

// Add returns the component-wise sum of c and o — how per-shard tick
// records merge into one cluster-wide record.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		MobTicks:      c.MobTicks + o.MobTicks,
		ItemTicks:     c.ItemTicks + o.ItemTicks,
		TNTTicks:      c.TNTTicks + o.TNTTicks,
		InactiveSkips: c.InactiveSkips + o.InactiveSkips,
		PathNodes:     c.PathNodes + o.PathNodes,
		Repaths:       c.Repaths + o.Repaths,
		Collisions:    c.Collisions + o.Collisions,
		SpawnAttempts: c.SpawnAttempts + o.SpawnAttempts,
		Spawns:        c.Spawns + o.Spawns,
		Despawns:      c.Despawns + o.Despawns,
		Moved:         c.Moved + o.Moved,
	}
}
