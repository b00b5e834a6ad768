package studyd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// SubmitOptions tunes one submission's server-side execution.
type SubmitOptions struct {
	// Workers pins the study's sweep worker count (0 = server default).
	Workers int
	// Telemetry asks the server to interleave point-tagged kernel
	// telemetry lines; TSample is the sample interval in slots
	// (0 = server default).
	Telemetry bool
	TSample   uint64
	// Trace asks for the request's execution profile as a final
	// Chrome-trace line.
	Trace bool
}

// SubmitSinks routes the demultiplexed stream. Any nil sink drops its
// lines.
type SubmitSinks struct {
	// Records receives the result-record lines exactly as the server
	// sent them (raw bytes, newline-terminated), restored to
	// enumeration order: `fabricpower submit`'s stdout is
	// byte-identical to `fabricpower run -json` because both pipe
	// the same marshaled study.ResultRecord lines, in the same order.
	Records io.Writer
	// Events receives every framing and progress line raw
	// (study_start, point_start/point_finish, study_finish).
	Events func(line []byte)
	// Telemetry receives the point-tagged kernel telemetry lines raw.
	Telemetry io.Writer
	// Trace receives the Chrome trace-event JSON document (not the
	// wrapping line) when SubmitOptions.Trace asked for one.
	Trace io.Writer
}

// SubmitResult summarizes a completed stream.
type SubmitResult struct {
	// ID is the server-assigned study id.
	ID string
	// Points is the enumerated grid size; Completed how many points
	// finished; Records how many result lines arrived.
	Points    int
	Completed int
	Records   int
	// DurationMS is the server-side wall-clock run time.
	DurationMS float64
	// RemoteErr is the study's server-side error ("" on success): the
	// stream completed, but the sweep was cancelled or failed after
	// Completed points.
	RemoteErr string
}

// probeLine is the minimal superset decode that classifies any stream
// line.
type probeLine struct {
	Kind       string          `json:"kind"`
	ID         string          `json:"id"`
	Points     int             `json:"points"`
	Completed  int             `json:"completed"`
	DurationMS float64         `json:"durationMS"`
	Err        string          `json:"err"`
	Index      *int            `json:"index"`
	Result     json.RawMessage `json:"result"`
	Point      *int            `json:"point"`
	Trace      json.RawMessage `json:"trace"`
}

// Submit posts a spec document to a studyd server and demultiplexes
// the NDJSON response stream into sinks until the study_finish line.
// The transport-level contract: a non-nil error means the stream did
// not complete (connection refused, non-200 status, truncation,
// cancellation); a server-side sweep failure after a complete stream
// is reported in SubmitResult.RemoteErr instead, with every record
// that made it across already written to the Records sink.
func Submit(ctx context.Context, hc *http.Client, baseURL string, spec io.Reader, opt SubmitOptions, sinks SubmitSinks) (*SubmitResult, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	u := strings.TrimRight(baseURL, "/") + "/v1/studies"
	params := url.Values{}
	if opt.Workers != 0 {
		params.Set("workers", strconv.Itoa(opt.Workers))
	}
	if opt.Telemetry {
		params.Set("telemetry", "1")
		if opt.TSample > 0 {
			params.Set("tsample", strconv.FormatUint(opt.TSample, 10))
		}
	}
	if opt.Trace {
		params.Set("trace", "1")
	}
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, spec)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("studyd: submitting to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := strings.TrimSpace(string(body))
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, fmt.Errorf("studyd: server busy (429, Retry-After %ss): %s",
				resp.Header.Get("Retry-After"), msg)
		}
		return nil, fmt.Errorf("studyd: %s: %s", resp.Status, msg)
	}

	res := &SubmitResult{ID: resp.Header.Get("X-Study-Id")}
	// Records stream in completion order; restore enumeration order by
	// holding back out-of-order lines until their predecessors arrive.
	// With sequential server-side sweeps the holdback is empty and
	// every record is forwarded the moment it lands.
	pending := make(map[int][]byte)
	next := 0
	writeRecord := func(line []byte) error {
		if sinks.Records == nil {
			return nil
		}
		_, werr := sinks.Records.Write(line)
		return werr
	}
	flushReady := func() error {
		for {
			line, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			next++
			if err := writeRecord(line); err != nil {
				return err
			}
		}
	}
	finished := false

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		var p probeLine
		if err := json.Unmarshal(raw, &p); err != nil {
			return res, fmt.Errorf("studyd: undecodable stream line: %w", err)
		}
		line := append(append([]byte(nil), bytes.TrimRight(raw, "\r")...), '\n')
		switch {
		case p.Kind == "" && p.Index != nil && p.Result != nil:
			res.Records++
			if *p.Index == next {
				if err := writeRecord(line); err != nil {
					return res, err
				}
				next++
				if err := flushReady(); err != nil {
					return res, err
				}
			} else {
				pending[*p.Index] = line
			}
		case p.Kind == "study_start":
			res.ID = p.ID
			res.Points = p.Points
			if sinks.Events != nil {
				sinks.Events(line)
			}
		case p.Kind == "study_finish":
			finished = true
			res.Completed = p.Completed
			res.DurationMS = p.DurationMS
			res.RemoteErr = p.Err
			if sinks.Events != nil {
				sinks.Events(line)
			}
		case p.Kind == "trace":
			if sinks.Trace != nil && p.Trace != nil {
				if _, err := sinks.Trace.Write(append(p.Trace, '\n')); err != nil {
					return res, err
				}
			}
		case p.Point != nil:
			if sinks.Telemetry != nil {
				if _, err := sinks.Telemetry.Write(line); err != nil {
					return res, err
				}
			}
		default:
			if sinks.Events != nil {
				sinks.Events(line)
			}
		}
		if finished {
			break
		}
	}
	// A failed or cancelled sweep leaves gaps in the index sequence;
	// drain the holdback in index order, exactly like run -json's
	// WriteResultRecords skipping never-run points.
	idxs := make([]int, 0, len(pending))
	for i := range pending {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if err := writeRecord(pending[i]); err != nil {
			return res, err
		}
	}
	if serr := sc.Err(); serr != nil {
		return res, fmt.Errorf("studyd: reading stream: %w", serr)
	}
	if !finished {
		if cerr := ctx.Err(); cerr != nil {
			return res, fmt.Errorf("studyd: stream interrupted: %w", cerr)
		}
		return res, fmt.Errorf("studyd: stream truncated: no study_finish line (server died mid-study?)")
	}
	return res, nil
}
