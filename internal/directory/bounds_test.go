package directory

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The value bounds Match takes over the blocked layout (a search of the
// block headers, then one inside the chosen block) must return the position
// a flat binary search over the whole sorted run returns, on every value
// distribution, including the hard ones for a position-guessing search:
// constant runs, heavy clustering, exponential spread and long stretches of
// duplicates straddling block splits.
func TestInterpBoundsMatchBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	distros := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.Float64() * 1e6
			}
			return vals
		},
		"clustered": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				// Almost everything at 0, a thin tail to 1e9.
				if rng.Intn(100) == 0 {
					vals[i] = rng.Float64() * 1e9
				}
			}
			return vals
		},
		"constant": func(n int) []float64 {
			return make([]float64, n)
		},
		"exponential": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Exp(rng.Float64() * 20)
			}
			return vals
		},
		"duplicates": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(10))
			}
			return vals
		},
	}
	for name, gen := range distros {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 31, 32, 1000, 20000} {
				vals := gen(n)
				// Half the entries arrive as one bulk batch, the rest one
				// by one, so the layout holds both merged and split blocks.
				var s Store
				batch := make([]Entry, 0, n/2)
				for i, v := range vals {
					e := entry(uint64(i), "a", v, "o")
					if i < n/2 {
						batch = append(batch, e)
					} else {
						if i == n/2 {
							s.AddAll(batch)
						}
						s.Add(e)
					}
				}
				var view seq
				if p := s.part("a"); p != nil {
					view = p.vals
				}
				var flat []rec
				for _, b := range view.blocks {
					flat = append(flat, b.recs...)
				}
				if len(flat) != n {
					t.Fatalf("n=%d: value view holds %d records", n, len(flat))
				}
				pos := func(bi, i int) int {
					for _, b := range view.blocks[:bi] {
						i += len(b.recs)
					}
					return i
				}
				for q := 0; q < 500; q++ {
					var probe float64
					switch q % 3 {
					case 0:
						probe = rng.Float64() * 1e6
					case 1:
						if n > 0 {
							probe = flat[rng.Intn(n)].value
						}
					case 2:
						probe = math.Exp(rng.Float64() * 20)
					}
					want := sort.Search(n, func(k int) bool { return flat[k].value >= probe })
					if got := pos(view.valBound(probe, false)); got != want {
						t.Fatalf("n=%d lower valBound(%v) = %d, want %d", n, probe, got, want)
					}
					want = sort.Search(n, func(k int) bool { return flat[k].value > probe })
					if got := pos(view.valBound(probe, true)); got != want {
						t.Fatalf("n=%d upper valBound(%v) = %d, want %d", n, probe, got, want)
					}
				}
			}
		})
	}
}
