// Package energy defines the input-vector indexed bit-energy look-up
// tables at the heart of the paper's node-switch model (§3.1) and the
// characterizer that regenerates them from gate-level simulation.
//
// A switch with n inputs has 2ⁿ input vectors; each vector v maps to the
// energy the switch consumes per bit-time while its input occupancy is v.
// The value covers all bits transported concurrently in that state, which
// is why Table 1's Banyan entry for [1,1] (1821 fJ) is less than twice the
// [0,1] entry (1080 fJ): processing two packets costs more than one but
// not twice as much (§3.1's concurrency discount).
//
// Two table sources are provided:
//
//   - The paper's published Table 1 values (the Paper* functions), the
//     fixed reference characterization every experiment runs against.
//
//   - Characterize, which drives an internal/circuits netlist with random
//     payload streams per input vector and measures toggle energy with the
//     internal/gates simulator — the from-scratch substitute for the
//     Synopsys Power Compiler flow of §5.1. Because an open re-implemented
//     cell library cannot match a proprietary one absolutely,
//     exp.RunTable1 scales every characterized table by one anchor factor
//     (Banyan [0,1] to 1080 fJ), which preserves their relative shape.
package energy

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Vector is an input-occupancy vector: bit i set means a packet is present
// on input port i this bit-time.
type Vector uint64

// Popcount returns the number of occupied inputs.
func (v Vector) Popcount() int { return bits.OnesCount64(uint64(v)) }

// String renders the vector LSB-first like the paper's [a,b] notation.
func (v Vector) String() string {
	return fmt.Sprintf("%b", uint64(v))
}

// Table is an input-vector indexed bit-energy table for one switch type.
// EnergyFJ returns the switch's energy per bit-time in state v, in fJ.
type Table interface {
	EnergyFJ(v Vector) float64
}

// DenseLUT stores one energy value per vector; practical for switches with
// few inputs (2×2 switches, crosspoints), exactly the regime the paper
// notes keeps 2ⁿ manageable.
type DenseLUT struct {
	inputs int
	fj     []float64
}

// NewDenseLUT returns a zero-filled dense LUT for a switch with the given
// number of inputs (must be 1..16).
func NewDenseLUT(inputs int) (*DenseLUT, error) {
	if inputs < 1 || inputs > 16 {
		return nil, fmt.Errorf("energy: dense LUT supports 1..16 inputs, got %d", inputs)
	}
	return &DenseLUT{inputs: inputs, fj: make([]float64, 1<<uint(inputs))}, nil
}

// Set assigns the energy for one vector.
func (l *DenseLUT) Set(v Vector, fj float64) error {
	if int(v) >= len(l.fj) {
		return fmt.Errorf("energy: vector %v out of range for %d inputs", v, l.inputs)
	}
	if fj < 0 {
		return fmt.Errorf("energy: negative energy %g for vector %v", fj, v)
	}
	l.fj[v] = fj
	return nil
}

// EnergyFJ returns the energy for vector v (0 for out-of-range vectors).
func (l *DenseLUT) EnergyFJ(v Vector) float64 {
	if int(v) >= len(l.fj) {
		return 0
	}
	return l.fj[v]
}

// PopcountLUT stores one energy value per occupied-input count. It suits
// wide switches (the N-input MUX) whose energy the paper reports as "very
// close among different input vectors" for the same occupancy.
type PopcountLUT struct {
	inputs int
	fj     []float64 // indexed by popcount 0..inputs
}

// NewPopcountLUT returns a zero-filled popcount LUT.
func NewPopcountLUT(inputs int) (*PopcountLUT, error) {
	if inputs < 1 || inputs > 64 {
		return nil, fmt.Errorf("energy: popcount LUT supports 1..64 inputs, got %d", inputs)
	}
	return &PopcountLUT{inputs: inputs, fj: make([]float64, inputs+1)}, nil
}

// SetPopcount assigns the energy for all vectors with k occupied inputs.
func (l *PopcountLUT) SetPopcount(k int, fj float64) error {
	if k < 0 || k > l.inputs {
		return fmt.Errorf("energy: popcount %d out of range 0..%d", k, l.inputs)
	}
	if fj < 0 {
		return fmt.Errorf("energy: negative energy %g for popcount %d", fj, k)
	}
	l.fj[k] = fj
	return nil
}

// EnergyFJ returns the energy for vector v by its popcount.
func (l *PopcountLUT) EnergyFJ(v Vector) float64 {
	k := v.Popcount()
	if k > l.inputs {
		k = l.inputs
	}
	return l.fj[k]
}

// Table 1's node-switch energies per bit-time, indexed by input vector.
var (
	paperCrosspointFJ = [...]float64{0b0: 0, 0b1: 220}
	paperBanyanFJ     = [...]float64{0b00: 0, 0b01: 1080, 0b10: 1080, 0b11: 1821}
	paperBatcherFJ    = [...]float64{0b00: 0, 0b01: 1253, 0b10: 1253, 0b11: 2025}
)

// PaperCrosspointFJ returns Table 1's crossbar crosspoint energy for the
// one-input vector v: [0] = 0 fJ, [1] = 220 fJ.
func PaperCrosspointFJ(v Vector) float64 { return paperCrosspointFJ[v] }

// PaperBanyanFJ returns Table 1's Banyan 2×2 binary switch energy for the
// two-input vector v: [0,0] = 0, [0,1] = [1,0] = 1080 fJ, [1,1] = 1821 fJ.
func PaperBanyanFJ(v Vector) float64 { return paperBanyanFJ[v] }

// PaperBatcherFJ returns Table 1's Batcher 2×2 sorting switch energy for
// the two-input vector v: [0,0] = 0, [0,1] = [1,0] = 1253 fJ,
// [1,1] = 2025 fJ.
func PaperBatcherFJ(v Vector) float64 { return paperBatcherFJ[v] }

// paperMuxFJ lists Table 1's N-input MUX energies.
var paperMuxFJ = map[int]float64{
	4:  431,
	8:  782,
	16: 1350,
	32: 2515,
}

// PaperMuxEnergyFJ returns Table 1's MUX bit energy for an N-input MUX.
// For port counts the paper does not list, the value is extrapolated on
// the log-log fit of the published points (the growth is ≈1.8× per
// doubling of N).
func PaperMuxEnergyFJ(n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("energy: mux needs at least 2 inputs, got %d", n)
	}
	if fj, ok := paperMuxFJ[n]; ok {
		return fj, nil
	}
	// Least-squares fit of ln(E) = a + b·ln(N) over the published points,
	// accumulated in sorted key order so the fit is bit-reproducible
	// (map iteration order would perturb the float sums).
	keys := make([]int, 0, len(paperMuxFJ))
	for k := range paperMuxFJ {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sx, sy, sxx, sxy float64
	cnt := 0.0
	for _, k := range keys {
		x, y := math.Log(float64(k)), math.Log(paperMuxFJ[k])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		cnt++
	}
	b := (cnt*sxy - sx*sy) / (cnt*sxx - sx*sx)
	a := (sy - b*sx) / cnt
	return math.Exp(a + b*math.Log(float64(n))), nil
}
