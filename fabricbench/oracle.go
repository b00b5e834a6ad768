package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"fabricpower/study"
)

// digests.json pins, per batch workload and seed, the SHA-256 of the
// workload's study.Result values. Regenerate with -write-digests; the
// simulated statistics are byte-identical by the repository's golden
// rule, so a pinned digest only changes when results do.
//
//go:embed digests.json
var digestsJSON []byte

// pinnedDigest returns the pinned digest of workload at seed, or ""
// when the seed has none.
func pinnedDigest(pins []byte, workload string, seed int64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(pins, &all); err != nil {
		return "", fmt.Errorf("reading pinned digests: %w", err)
	}
	return all[workload][strconv.FormatInt(seed, 10)], nil
}

// resultDigest hashes the result values of a grid run in enumeration
// order. The resolved scenarios are left out, so worker and shard
// counts do not change the digest.
func resultDigest(results []study.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkResult tests the invariants every result must hold whatever
// the seed: the measured window as configured, finite non-negative
// energies, throughput within [0, 1], and traffic flowing through
// every network that was offered any.
func checkResult(sc study.Scenario, r study.Result) error {
	if r.Slots != sc.Sim.MeasureSlots {
		return fmt.Errorf("measured %d slots, want %d", r.Slots, sc.Sim.MeasureSlots)
	}
	for _, v := range []float64{r.Energy.SwitchFJ, r.Energy.BufferFJ, r.Energy.WireFJ,
		r.Power.SwitchMW, r.Power.BufferMW, r.Power.WireMW, r.Power.StaticMW, r.AvgLatencySlots, r.EnergyPerBitFJ} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("energy, power or latency %v is not a finite non-negative number", v)
		}
	}
	if r.Throughput < 0 || r.Throughput > 1 {
		return fmt.Errorf("throughput %v outside [0,1]", r.Throughput)
	}
	if sc.Network == nil {
		if r.Ports != sc.Fabric.Ports || r.Arch != sc.Fabric.Arch {
			return fmt.Errorf("result is %s/%d, scenario %s/%d", r.Arch, r.Ports, sc.Fabric.Arch, sc.Fabric.Ports)
		}
		return nil
	}
	n := r.Net
	if n == nil {
		return fmt.Errorf("network scenario without a network report")
	}
	if n.OfferedCells > 0 && n.DeliveredCells == 0 {
		return fmt.Errorf("none of %d offered cells delivered", n.OfferedCells)
	}
	if sc.Network.Failures != nil && sc.Network.Failures.MTBF > 0 && n.Resilience == nil {
		return fmt.Errorf("faulted scenario without a resilience ledger")
	}
	return nil
}

// checkGrid verifies one completed grid run: every point done and
// holding its invariants, and the result digest equal to want (when
// non-empty). It returns the digest.
func checkGrid(gr *study.GridResult, want string) (string, error) {
	if gr == nil {
		return "", fmt.Errorf("no grid result")
	}
	for i, p := range gr.Points {
		if !p.Done {
			return "", fmt.Errorf("point %d did not run", i)
		}
		if err := checkResult(p.Scenario, p.Result); err != nil {
			return "", fmt.Errorf("point %d (%s): %w", i, p.Scenario.Label(), err)
		}
	}
	got, err := resultDigest(gr.Results())
	if err != nil {
		return "", err
	}
	if want != "" && got != want {
		return got, fmt.Errorf("result digest %s, want %s", got, want)
	}
	return got, nil
}
