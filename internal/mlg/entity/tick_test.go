package entity

// Store-level tests of the serial entity tick over multi-cluster
// populations: clusters far apart must tick exactly as they would alone
// (the per-entity decision streams of rng.go keep one entity's draws
// independent of every other entity's), and a blast-impulse batch must
// match its per-center loop.

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/mlg/world"
)

// clusterOrigins lays out cluster anchors 256 blocks apart on the X axis —
// 16 chunks, far beyond player target, activation and blast ranges.
func clusterOrigins(n int) []world.Pos {
	out := make([]world.Pos, n)
	for i := range out {
		out[i] = world.Pos{X: 32 + i*256, Y: 12, Z: 32}
	}
	return out
}

// buildClusterWorld creates an entity world over flat terrain covering the
// given clusters and populates each with items, mobs and slow-fuse TNT via
// the public spawn API. cfg is DefaultConfig with the activation range set,
// to exercise the throttling path too.
func buildClusterWorld(tb testing.TB, origins []world.Pos, naturalSpawning bool) *World {
	tb.Helper()
	w := world.New(&world.FlatGenerator{SurfaceY: 10, Surface: world.Grass})
	cfg := DefaultConfig()
	cfg.ActivationRange = 32
	cfg.NaturalSpawning = naturalSpawning
	ew := NewWorld(w, cfg, 424242)
	for _, o := range origins {
		w.EnsureArea(o, 4)
		for i := 0; i < 30; i++ {
			ew.SpawnItem(world.Pos{X: o.X + i%6*2, Y: 14, Z: o.Z + i/6*2}, world.Gravel)
		}
		for i := 0; i < 6; i++ {
			ew.SpawnMob(world.Pos{X: o.X + 3 + i, Y: 11, Z: o.Z + 10})
		}
		for i := 0; i < 4; i++ {
			// Staggered fuses so detonations drain across several ticks.
			ew.SpawnPrimedTNT(world.Pos{X: o.X + 8, Y: 12, Z: o.Z + 4 + i}, 25+7*i)
		}
	}
	return ew
}

// clusterPlayers puts one player at each cluster so mobs acquire AI targets
// and activation marking has work to do.
func clusterPlayers(origins []world.Pos) []Vec3 {
	out := make([]Vec3, 0, len(origins))
	for _, o := range origins {
		out = append(out, Vec3{X: float64(o.X) + 5.5, Y: 11, Z: float64(o.Z) + 5.5})
	}
	return out
}

// stateWithoutIDs is the store's state snapshot with every entity ID zeroed:
// IDs are store-local allocation order, which legitimately differs between
// a store holding one cluster and one holding several.
func stateWithoutIDs(ew *World) []byte {
	var out []byte
	ew.Entities(func(e *Entity) {
		n := len(out)
		out = AppendSnapshot(out, e)
		clear(out[n : n+8])
	})
	return out
}

// TestEntityTickClusterIndependence ticks three far-apart clusters in one
// store and each cluster alone in its own store. Every tick, the combined
// store's counters must equal the sum of the single stores', its per-chunk
// updates their union, its detonations their concatenation, and its
// entity state (IDs aside) theirs in cluster order. Natural spawning is off:
// its placement draws come from the shared store RNG and depend on the
// whole player list.
func TestEntityTickClusterIndependence(t *testing.T) {
	origins := clusterOrigins(3)
	combined := buildClusterWorld(t, origins, false)
	// Each player stands 20 blocks from its cluster's mobs: outside their
	// 16-block target range, inside the 32-block activation range, so the
	// mobs wander to random goals drawn from their decision streams.
	players := clusterPlayers(origins)
	for i := range players {
		players[i].Z -= 16
	}
	singles := make([]*World, len(origins))
	for i, o := range origins {
		singles[i] = buildClusterWorld(t, []world.Pos{o}, false)
	}

	detonations := 0
	for tick := 0; tick < 80; tick++ {
		got := combined.Tick(players)
		var want Counters
		wantUpdates := map[world.ChunkPos]ChunkUpdates{}
		var wantExplosions []world.Pos
		var wantState []byte
		for i, s := range singles {
			want = want.Add(s.Tick(players[i : i+1]))
			for _, u := range s.DrainChunkUpdates() {
				wantUpdates[u.Pos] = u
			}
			wantExplosions = append(wantExplosions, s.DrainExplosions()...)
			wantState = append(wantState, stateWithoutIDs(s)...)
		}
		if got != want {
			t.Fatalf("tick %d: counters diverged\ncombined: %+v\nsum:      %+v", tick, got, want)
		}
		gotUpdates := map[world.ChunkPos]ChunkUpdates{}
		for _, u := range combined.DrainChunkUpdates() {
			gotUpdates[u.Pos] = u
		}
		if !maps.Equal(gotUpdates, wantUpdates) {
			t.Fatalf("tick %d: chunk updates diverged\ncombined: %v\nunion:    %v", tick, gotUpdates, wantUpdates)
		}
		gotExplosions := combined.DrainExplosions()
		if fmt.Sprint(gotExplosions) != fmt.Sprint(wantExplosions) {
			t.Fatalf("tick %d: detonations diverged\ncombined: %v\nsingles:  %v", tick, gotExplosions, wantExplosions)
		}
		detonations += len(gotExplosions)
		if !bytes.Equal(stateWithoutIDs(combined), wantState) {
			t.Fatalf("tick %d: entity state diverged", tick)
		}
	}
	if detonations == 0 {
		t.Fatal("no TNT detonated: the window never covered the fuses")
	}
}

// TestApplyExplosionImpulsesEquivalence compares a blast-impulse batch
// against the per-center loop on twin stores: entity state and collision
// counters must match exactly.
func TestApplyExplosionImpulsesEquivalence(t *testing.T) {
	origins := clusterOrigins(4)
	loop := buildClusterWorld(t, origins, true)
	batch := buildClusterWorld(t, origins, true)

	var centers []world.Pos
	for _, o := range origins {
		centers = append(centers,
			world.Pos{X: o.X + 2, Y: 13, Z: o.Z + 2},
			world.Pos{X: o.X + 5, Y: 13, Z: o.Z + 3},
		)
	}
	for _, c := range centers {
		loop.ApplyExplosionImpulse(c, 4)
	}
	batch.ApplyExplosionImpulses(centers, 4)

	if loop.counters != batch.counters {
		t.Fatalf("impulse counters diverged\nloop:  %+v\nbatch: %+v", loop.counters, batch.counters)
	}
	if loop.counters.Collisions == 0 {
		t.Fatal("no entity was in blast range")
	}
	if a, b := loop.AppendStateSnapshot(nil), batch.AppendStateSnapshot(nil); !bytes.Equal(a, b) {
		t.Fatal("impulse batch left diverging entity state")
	}
}
