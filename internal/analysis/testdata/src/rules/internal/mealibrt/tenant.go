// Package mealibrt is analyzer test data for the runtime's rows: the
// default tenant is a Session like any other, and the launch path keeps no
// second reading of the descriptor.
package mealibrt

import (
	"mealib/internal/accel"
	"mealib/internal/analysis/tdlcheck"
	"mealib/internal/descriptor"
)

type Session struct{ name string }

type Config struct{ WavePipeline bool }

const defaultTenant = "_default"

func (s *Session) hostAccess() {} // want `one-tenant: hostAccess`

func isDefault(s *Session) bool {
	return s == nil // want `one-tenant: \*mealib/internal/mealibrt\.Session compared with nil`
}

func isDefaultName(s *Session) bool {
	return s.name == defaultTenant // want `one-tenant: comparison with mealibrt\.defaultTenant`
}

// Two sessions may be compared: a buffer belongs to one.
func same(a, b *Session) bool { return a == b }

func install(d *descriptor.Descriptor) error {
	_, err := tdlcheck.Writes(d) // want `one-walk: tdlcheck\.Writes`
	return err
}

func fusing(c accel.Config) bool {
	return c.NoFusion // want `one-fusion: accel\.Config\.NoFusion`
}
