package mapping

// Pair-list hop statistics with no production caller (Analyze walks
// the halo pairs in place): analyze_test.go rebuilds Analyze from them.

// AvgHops returns the mean torus hop distance over the given rank
// pairs. It returns 0 for an empty pair list.
func AvgHops(m *Mapping, pairs [][2]int) float64 {
	total := 0
	for _, p := range pairs {
		total += m.Hops(p[0], p[1])
	}
	return mean(total, len(pairs))
}

// MaxHops returns the maximum torus hop distance over the given rank
// pairs.
func MaxHops(m *Mapping, pairs [][2]int) int {
	max := 0
	for _, p := range pairs {
		if h := m.Hops(p[0], p[1]); h > max {
			max = h
		}
	}
	return max
}
