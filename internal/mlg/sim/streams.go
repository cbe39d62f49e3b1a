package sim

import "repro/internal/mlg/world"

// Position-keyed random streams — the terrain half of the determinism
// contract: output is independent of worker count and of shard layout.
//
// A shared engine RNG would make every draw's value depend on the global
// draw order: which chunks were loaded, which explosion detonated first, how
// many random-tick samples preceded this one. That order is NOT identical
// across shard layouts — a shard simulating half the chunks would consume
// half the draws. Every draw the simulation needs is therefore keyed by the
// simulation state that caused it (chunk or block position ⊕ tick ⊕ world
// seed) and advanced by draw index within that event, making each value a
// pure function of simulation state: a shard that owns a chunk draws exactly
// the values the single-shard run draws for it, no matter what the rest of
// the cluster is doing. The engine keeps no stateful RNG at all.

// posStream is a stateless counter-based splitmix64 stream.
type posStream struct{ state uint64 }

// chunkStream keys a stream by (world seed, chunk column, tick) — one stream
// per chunk per tick, used by the random-tick sampler.
func chunkStream(seed int64, cp world.ChunkPos, tick int64) posStream {
	return posStream{state: mix64(uint64(world.RegionSeed(seed, cp)) ^ rotl(uint64(tick), 32))}
}

// blockStream keys a stream by (world seed, block position, tick) — one
// stream per affected block per tick, used by explosion fuse/drop rolls.
func blockStream(seed int64, p world.Pos, tick int64) posStream {
	h := uint64(int64(p.X))*0x9E3779B97F4A7C15 ^
		rotl(uint64(int64(p.Y)), 21)*0xBF58476D1CE4E5B9 ^
		rotl(uint64(int64(p.Z)), 42)*0x94D049BB133111EB
	return posStream{state: mix64(uint64(seed) ^ h ^ rotl(uint64(tick), 32))}
}

// next advances the stream one draw: splitmix64 over the keyed state.
func (s *posStream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Intn returns a draw in [0, n). Modulo bias at the simulation's tiny ranges
// (n <= 256) is below 2^-55 — irrelevant for growth and fuse rolls.
func (s *posStream) Intn(n int) int { return int(s.next() % uint64(n)) }

// Float64 returns a draw in [0, 1) with 53 bits of precision.
func (s *posStream) Float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }
