package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkQueue cycles the queue at a fixed depth, entries spread over
// one link delay: pop + insert for events, rekey for train heads. Depth
// 8 is a small world (front heap only), the others run through the ring.
func BenchmarkQueue(b *testing.B) {
	for _, depth := range []int{8, 1000, 4000} {
		for _, heads := range []bool{false, true} {
			b.Run(fmt.Sprintf("depth=%d/heads=%v", depth, heads), func(b *testing.B) {
				var s Scheduler
				rng := rand.New(rand.NewSource(1))
				ds := &dirState{}
				key := uint64(0)
				for i := 0; i < depth; i++ {
					key++
					s.push(entry{at: time.Duration(rng.Intn(300_000)), key: key, what: ds})
				}
				ahead := make([]time.Duration, 1024)
				for i := range ahead {
					ahead[i] = 200*time.Microsecond + time.Duration(rng.Intn(100_000))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := s.peek()
					key++
					at := e.at + ahead[i&1023]
					if heads {
						s.rekey(at, key)
					} else {
						s.pop()
						s.push(entry{at: at, key: key, what: ds})
					}
				}
			})
		}
	}
}
