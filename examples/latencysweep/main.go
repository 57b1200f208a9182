// Latencysweep: a miniature of the paper's Figure 1/2 sweep using the
// experiment harness directly — shows how to evaluate the sync module's
// behaviour under your own network assumptions.
//
//	go run ./examples/latencysweep
package main

import (
	"fmt"
	"log"
	"time"

	"retrolock/internal/harness"
)

func main() {
	log.SetFlags(0)

	base := harness.PaperCalibration()
	base.Frames = 900 // 15 virtual seconds per point
	base.Seed = 7
	base.Game = "tanks"

	// Each RTT is an independent virtual-time world; SweepRTT runs them
	// concurrently and returns them in order.
	points, err := harness.SweepRTT(base, []time.Duration{
		0,
		50 * time.Millisecond,
		100 * time.Millisecond,
		140 * time.Millisecond, // the paper's recommended maximum
		180 * time.Millisecond,
		250 * time.Millisecond,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("RTT      frame time   deviation    FPS    cross-site sync")
	for _, p := range points {
		s := p.Result.Sites[0]
		verdict := "smooth"
		switch {
		case s.FrameTimes.MAD > 5 && s.FPS > 55:
			verdict = "choppy"
		case s.FPS <= 55:
			verdict = "slowed down"
		}
		fmt.Printf("%-7v  %7.2f ms   %6.2f ms   %5.1f   %8.2f ms   (%s)\n",
			p.RTT, s.FrameTimes.Mean, s.FrameTimes.MAD, s.FPS, p.Result.Sync.AbsMean, verdict)
	}
	fmt.Println("\nthe paper recommends RTT <= 140 ms for systems built this way (§4.1)")
}
