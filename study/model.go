package study

import (
	"fmt"

	"fabricpower/internal/core"
)

// ModelSpec selects a bit-energy model declaratively — the
// JSON-serializable counterpart of the model constructors in
// internal/core. The zero value is the paper's case-study model.
type ModelSpec struct {
	// Base selects the buffer-accounting reading: "paper" (default,
	// per-bit Table 2) or "perword" (per 32-bit word, under which the
	// 32×32 Banyan stays cheapest through 50% load, against 0% per bit
	// and the paper's ≈35%).
	Base string `json:"base,omitempty"`
	// Static attaches the default static-power model (leakage and
	// clock trees) so power-management policies have idle power to
	// save. False reproduces the paper's dynamic-only accounting.
	Static bool `json:"static,omitempty"`
	// BufferAccesses counts SRAM accesses charged per buffering event
	// per bit: 0 or 1 is the paper's Eq. 1 single access, 2 charges
	// write and read explicitly.
	BufferAccesses int `json:"bufferAccesses,omitempty"`
	// TechScale derives a scaled technology point.
	TechScale *TechScale `json:"techScale,omitempty"`
}

// TechScale scales the technology point: S scales feature size and
// capacitances, SV the supply voltage (e.g. a 0.13 µm shrink at 1.8 V:
// s=0.72, sv=0.55).
type TechScale struct {
	S  float64 `json:"s"`
	SV float64 `json:"sv"`
}

// PaperModel returns the spec of the paper's case study.
func PaperModel() ModelSpec { return ModelSpec{} }

// PerWordModel returns the per-word buffer-accounting spec.
func PerWordModel() ModelSpec { return ModelSpec{Base: "perword"} }

func (m ModelSpec) validate() error {
	switch m.Base {
	case "", "paper", "perword":
	default:
		return fmt.Errorf("study: unknown model base %q (want paper or perword)", m.Base)
	}
	if m.BufferAccesses < 0 || m.BufferAccesses > 2 {
		return fmt.Errorf("study: bufferAccesses must be 1 or 2, got %d", m.BufferAccesses)
	}
	return nil
}

// Build resolves the spec into the internal model. The returned type
// lives in an internal package: Build exists for the in-module
// experiment runners; external callers treat ModelSpec as opaque data
// executed via RunScenario / Grid.Run.
func (m ModelSpec) Build() (core.Model, error) {
	if err := m.validate(); err != nil {
		return core.Model{}, err
	}
	var model core.Model
	if m.Base == "perword" {
		model = core.PerWordModel()
	} else {
		model = core.PaperModel()
	}
	if m.BufferAccesses != 0 {
		model.BufferAccessesPerEvent = m.BufferAccesses
	}
	if m.TechScale != nil {
		tp, err := model.Tech.Scaled(m.TechScale.S, m.TechScale.SV)
		if err != nil {
			return core.Model{}, err
		}
		model.Tech = tp
	}
	if m.Static {
		model.Static = core.DefaultStaticPower()
	}
	if err := model.Validate(); err != nil {
		return core.Model{}, err
	}
	return model, nil
}
