package main

import (
	"encoding/json"
	"sort"
	"time"
)

// calRecord is one element of the calibration workload's JSON document.
type calRecord struct {
	ID    int      `json:"id"`
	Name  string   `json:"name"`
	Dists []int    `json:"dists"`
	Tags  []string `json:"tags"`
}

// calibrationRound is a fixed CPU workload that uses only the standard
// library: a JSON round trip, a sort and map inserts, the kinds of work a
// routed request does. No change to the program under test can change its
// cost, so its CPU time measures how fast the host runs this process at
// the moment it is taken.
func calibrationRound() int {
	recs := make([]calRecord, 256)
	x := uint32(1)
	for i := range recs {
		x = x*1664525 + 1013904223
		recs[i] = calRecord{ID: i, Name: "structure", Dists: []int{int(x % 97), int(x % 89), int(x % 83)}, Tags: []string{"edge", "eps0.3"}}
	}
	raw, _ := json.Marshal(recs)
	var back []calRecord
	_ = json.Unmarshal(raw, &back)
	keys := make([]int, 4096)
	for i := range keys {
		x = x*1664525 + 1013904223
		keys[i] = int(x >> 8)
	}
	sort.Ints(keys)
	m := make(map[int]int, len(keys))
	for i, k := range keys {
		m[k] = i
	}
	return len(back) + len(m)
}

// calibrate returns the process CPU time of one calibration round, the
// median of several short measurements.
func calibrate() time.Duration {
	const rounds = 20
	var per []time.Duration
	for k := 0; k < 5; k++ {
		c0 := processCPU()
		for r := 0; r < rounds; r++ {
			calibrationRound()
		}
		per = append(per, (processCPU()-c0)/rounds)
	}
	return median(per)
}
