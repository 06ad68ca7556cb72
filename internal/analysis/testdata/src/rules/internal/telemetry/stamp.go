// Package telemetry is analyzer test data: trace events carry wall time.
package telemetry

import "time"

func now() int64 { return time.Now().UnixNano() }
