package entity

// BenchmarkEntityTick times 60 store-level ticks over multi-cluster
// populations (items, mobs, slow TNT; see buildClusterWorld) — the serial
// entity loop's cost recorded in the BENCH_*.json trajectory.

import (
	"fmt"
	"runtime"
	"testing"
)

func BenchmarkEntityTick(b *testing.B) {
	for _, clusters := range []int{2, 4} {
		b.Run(fmt.Sprintf("Clusters%d", clusters), func(b *testing.B) {
			origins := clusterOrigins(clusters)
			players := clusterPlayers(origins)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ew := buildClusterWorld(b, origins, true)
				for w := 0; w < 5; w++ {
					ew.Tick(players) // settle spawn bursts off the timer
					ew.DrainChunkUpdates()
				}
				runtime.GC() // reproducible heap for 1x gate samples
				b.StartTimer()
				for t := 0; t < 60; t++ {
					ew.Tick(players)
				}
			}
		})
	}
}
