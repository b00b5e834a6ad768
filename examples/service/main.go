// Service: fabricpower as a long-running study server.
//
// internal/studyd turns the scenario wire format into an HTTP service:
// POST a spec to /v1/studies and the sweep's ResultRecord lines stream
// back as NDJSON while it runs, with framing lines bracketing them.
// What one resident process buys over N CLI invocations is admission
// control (a bounded queue, 429 + Retry-After past it), cancellation
// by disconnect or DELETE, a study listing and live metrics. This
// walkthrough:
//
//  1. boots a studyd in-process (the same server `fabricpower serve`
//     runs) on an ephemeral port,
//  2. submits a banyan grid with the streaming client and prints each
//     record as it arrives, in enumeration order,
//  3. lists the request lifecycle the server tracked, then drains it.
//
// Run with:
//
//	go run ./examples/service [-slots 400]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"fabricpower/internal/studyd"
)

func specJSON(slots uint64) string {
	return fmt.Sprintf(`{
  "version": 1,
  "base": {
    "fabric": {"arch": "banyan", "ports": 32},
    "traffic": {"kind": "bursty", "load": 0.2},
    "sim": {"warmupSlots": 100, "measureSlots": %d, "seed": 7}
  },
  "axes": [{"name": "load", "floats": [0.1, 0.2, 0.3]}]
}`, slots)
}

func main() {
	slots := flag.Uint64("slots", 400, "measured slots per operating point")
	flag.Parse()
	ctx := context.Background()

	// 1. The server: studyd.New + net/http, exactly what
	// `fabricpower serve` wraps. MaxConcurrent bounds simultaneous
	// sweeps; past MaxConcurrent+MaxQueue, POSTs get 429 + Retry-After.
	s := studyd.New(studyd.Config{MaxConcurrent: 2, MaxQueue: 4})
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("studyd listening on %s\n\n", base)

	// 2. Submit the grid. Records arrive in completion order; the
	// client restores enumeration order before writing them out.
	var records strings.Builder
	res, err := studyd.Submit(ctx, nil, base, strings.NewReader(specJSON(*slots)),
		studyd.SubmitOptions{Workers: 2}, studyd.SubmitSinks{Records: &records})
	if err != nil {
		log.Fatal(err)
	}
	if res.RemoteErr != "" {
		log.Fatalf("server-side failure: %s", res.RemoteErr)
	}
	fmt.Printf("study %s streamed %d/%d records in %.1f ms\n",
		res.ID, res.Records, res.Points, res.DurationMS)
	for _, line := range strings.Split(strings.TrimSpace(records.String()), "\n") {
		var rec struct {
			Index  int `json:"index"`
			Result struct {
				Throughput float64 `json:"throughput"`
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  point %d: throughput %.1f%%\n", rec.Index, rec.Result.Throughput*100)
	}
	fmt.Println()

	// 3. The lifecycle the server tracked, then a clean drain.
	resp, err := http.Get(base + "/v1/studies")
	if err != nil {
		log.Fatal(err)
	}
	var list struct {
		Studies []studyd.StudyStatus `json:"studies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	for _, st := range list.Studies {
		fmt.Printf("  %s  %-5s  %d/%d points  %.1f ms\n",
			st.ID, st.State, st.Completed, st.Points, st.DurationMS)
	}

	s.Stop()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
		os.Exit(1)
	}
}
