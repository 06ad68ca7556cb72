// Package exp is analyzer test data: the harness measures wall time and
// runs the chaining ablation.
package exp

import (
	"time"

	"mealib/internal/accel"
)

func stamp() time.Time { return time.Now() }

func unfused(c accel.Config) accel.Config { c.NoFusion = true; return c }
