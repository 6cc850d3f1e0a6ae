// This file is the benchmark's only wall-clock reader: every latency,
// set-up time and span the benchmark reports is a measured quantity, so all
// clock reads go through these helpers.
//
//pdevet:allow walltime the benchmark measures real elapsed time; this file is its only clock reader
package main

import "time"

// nowNS returns the wall clock in Unix nanoseconds. Wall (not monotonic)
// time is used because spans from the client process and the server child
// process are compared on one time axis.
func nowNS() int64 { return time.Now().UnixNano() }
