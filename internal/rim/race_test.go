package rim

import (
	"sync"
	"testing"

	"probpref/internal/rank"
)

// Two goroutines first-touching Model() on one fresh session model must
// build (or observe) one materialization without a data race: on a cold
// daemon two concurrent requests reach the solver for the same shared
// model together. Meaningful under -race; without it the test only checks
// that both callers see the same *Model.
func TestModelConcurrentFirstTouch(t *testing.T) {
	sigma := rank.Identity(12)
	phis := make([]float64, len(sigma))
	for i := range phis {
		phis[i] = 0.1 + 0.07*float64(i)
	}
	for name, fresh := range map[string]func() SessionModel{
		"mallows":            func() SessionModel { return MustMallows(sigma, 0.4) },
		"generalizedMallows": func() SessionModel { return MustGeneralizedMallows(sigma, phis) },
	} {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				sm := fresh()
				var got [2]*Model
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got[g] = sm.Model()
					}()
				}
				close(start)
				wg.Wait()
				if got[0] == nil || got[0] != got[1] {
					t.Fatalf("round %d: concurrent first touches saw models %p and %p", round, got[0], got[1])
				}
			}
		})
	}
}
