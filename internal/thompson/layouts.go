package thompson

// The closed-form layouts below reproduce the paper's manual Thompson
// embeddings (Figures 4–8) and feed the wire terms of Eqs. 3–6. All
// lengths are in Thompson grids; one grid carries a full bus.

// CrossbarWires models the crossbar embedding of Fig. 5: each crosspoint
// switch occupies 2×2 grids (two of its four ports are feed-throughs) plus
// two extra grids for the horizontal and vertical interconnect, giving a
// 4-grid pitch. A bit from input i to output j drives the full row wire and
// the full column wire, each 4N grids long.
type CrossbarWires struct{ N int }

// RowGrids returns the length of one full input (row) wire.
func (c CrossbarWires) RowGrids() int { return 4 * c.N }

// ColGrids returns the length of one full output (column) wire.
func (c CrossbarWires) ColGrids() int { return 4 * c.N }

// PathGrids returns the total wire a bit propagates for any input/output
// pair: row plus column, the 8N term of Eq. 3. The crossbar drives the
// entire row and column lines regardless of which crosspoint closes.
func (c CrossbarWires) PathGrids(i, j int) int { return c.RowGrids() + c.ColGrids() }

// FullyConnectedWires models the MUX-based fabric of Fig. 6 with the MUXes
// placed in a double row. The paper's Eq. 4 charges each delivered bit a
// worst-case ½·N² grids of wire.
type FullyConnectedWires struct{ N int }

// WorstGrids returns the paper's per-bit worst-case wire length (Eq. 4).
func (f FullyConnectedWires) WorstGrids() int { return f.N * f.N / 2 }

// PathGrids returns the wire length charged for a bit from input i to the
// MUX of output j. The paper uses the worst case uniformly; this is the
// default model. See AvgGrids for the refined average used in ablations.
func (f FullyConnectedWires) PathGrids(i, j int) int { return f.WorstGrids() }

// AvgGrids returns the average route length over all (i,j) pairs under the
// double-row MUX placement, ≈ ¼·N². Exposed for the layout-sensitivity
// ablation; the headline experiments use the paper's worst case.
func (f FullyConnectedWires) AvgGrids() int { return f.N * f.N / 4 }

// BanyanWires models the Banyan embedding (Figs. 4 and 7): an N=2ⁿ input
// network with n stages of 2×2 switches. The longest interconnect at stage
// i spans 4·2ⁱ grids (paper §4.3).
type BanyanWires struct {
	// Dimension n, with N = 2ⁿ ports.
	Dimension int
}

// Stages returns n.
func (b BanyanWires) Stages() int { return b.Dimension }

// StageGrids returns the wire length of the stage-i interconnect,
// 0 ≤ i < n. The paper uses the longest (worst-case) wire of the stage.
func (b BanyanWires) StageGrids(i int) int {
	if i < 0 || i >= b.Dimension {
		return 0
	}
	return 4 << uint(i)
}

// PathGrids returns the total worst-case wire a bit covers end to end:
// 4·Σ 2ⁱ = 4·(2ⁿ−1), the wire term of Eq. 5.
func (b BanyanWires) PathGrids() int {
	total := 0
	for i := 0; i < b.Dimension; i++ {
		total += b.StageGrids(i)
	}
	return total
}

// BatcherBanyanWires models the Batcher-Banyan embedding of Fig. 8: a
// bitonic (Batcher) sorting network of ½·n·(n+1) stages followed by the
// n-stage Banyan. Merge phase j (0 ≤ j < n) contains j+1 compare-exchange
// stages whose butterfly spans are 2ʲ, 2ʲ⁻¹, …, 1; the paper charges stage
// spans as wire lengths exactly like Banyan stages, giving the
// 4·Σⱼ Σᵢ₌₀ʲ 2ⁱ sorter term of Eq. 6.
type BatcherBanyanWires struct {
	// Dimension n, with N = 2ⁿ ports.
	Dimension int
}

// SorterStages returns the number of compare-exchange stages,
// ½·n·(n+1).
func (b BatcherBanyanWires) SorterStages() int {
	return b.Dimension * (b.Dimension + 1) / 2
}

// TotalStages returns sorter plus Banyan stages.
func (b BatcherBanyanWires) TotalStages() int { return b.SorterStages() + b.Dimension }

// SorterStageSpan returns the butterfly span (as a power of two) of global
// sorter stage s, 0 ≤ s < SorterStages(). Stage s belongs to merge phase j
// where phases are laid out consecutively; within phase j the spans run
// 2ʲ, 2ʲ⁻¹, …, 2⁰.
func (b BatcherBanyanWires) SorterStageSpan(s int) int {
	if s < 0 || s >= b.SorterStages() {
		return 0
	}
	for j := 0; j < b.Dimension; j++ {
		if s <= j {
			return 1 << uint(j-s)
		}
		s -= j + 1
	}
	return 0
}

// SorterStageGrids returns the wire length of global sorter stage s:
// 4 × span, mirroring the Banyan stage rule.
func (b BatcherBanyanWires) SorterStageGrids(s int) int {
	return 4 * b.SorterStageSpan(s)
}

// SorterPathGrids returns the total sorter wire a bit covers:
// 4·Σⱼ Σᵢ₌₀ʲ 2ⁱ = 4·Σⱼ (2ʲ⁺¹ − 1).
func (b BatcherBanyanWires) SorterPathGrids() int {
	total := 0
	for s := 0; s < b.SorterStages(); s++ {
		total += b.SorterStageGrids(s)
	}
	return total
}

// BanyanStageGrids returns the wire length of Banyan stage i following the
// sorter.
func (b BatcherBanyanWires) BanyanStageGrids(i int) int {
	return BanyanWires{Dimension: b.Dimension}.StageGrids(i)
}

// PathGrids returns the end-to-end worst-case wire length: the two wire
// terms of Eq. 6.
func (b BatcherBanyanWires) PathGrids() int {
	return b.SorterPathGrids() + BanyanWires{Dimension: b.Dimension}.PathGrids()
}
