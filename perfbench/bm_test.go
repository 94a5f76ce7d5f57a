package main

import (
	"math"
	"testing"
)

// A version's time per iteration is the median over the iterations no CPU
// time was stolen from when enough of them exist, and otherwise over the
// minUnstolen least-stolen ones: a measured time either way, never a
// fitted one.
func TestPerIterTime(t *testing.T) {
	s := &versionSamples{}
	for i := 0; i < minUnstolen; i++ {
		s.perIter = append(s.perIter, 2+float64(i%3), 50)
		s.stolen = append(s.stolen, 0, 1)
	}
	if got, clean := s.perIterTime(); got != 3 || !clean {
		t.Errorf("with %d unstolen iterations: %v (clean %v), want their median 3", minUnstolen, got, clean)
	}
	s.stolen[0] = 1
	for i := 1; i < len(s.stolen); i += 2 {
		s.stolen[i] = 2
	}
	// Now minUnstolen-1 iterations saw no steal, one saw 1 tick, the slow
	// ones 2 ticks.
	if got, clean := s.perIterTime(); clean || got != 3 {
		t.Errorf("with too few unstolen iterations: %v (clean %v), want 3, the median of the %d least stolen", got, clean, minUnstolen)
	}
	// A version whose steps grow costlier reads slower by as much.
	before, _ := s.perIterTime()
	for i := range s.perIter {
		s.perIter[i] *= 1.5
	}
	if got, _ := s.perIterTime(); math.Abs(got-1.5*before) > 1e-12 {
		t.Errorf("samples 1.5x costlier: %v, want %v", got, 1.5*before)
	}
}
