// Package noc models the mesh network connecting the tiles of the MEALib
// accelerator layer (paper §2.2, Figure 4): one tile per vault, organised as
// a traditional mesh with a network controller (NC) per tile, used for
// tile-to-tile traffic during chained and distributed operations. Its router
// and link power/area contribute the "NoC" row of Table 5.
package noc

import (
	"fmt"

	"mealib/internal/units"
)

// Coord is a tile position in the mesh.
type Coord struct{ X, Y int }

// String renders the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Config parameterises the mesh.
type Config struct {
	Width, Height int
	// LinkBW is the bandwidth of one mesh link.
	LinkBW units.BytesPerSec
	// HopLatency is the per-hop router+link traversal latency.
	HopLatency units.Seconds
	// FlitBytes is the link width per cycle.
	FlitBytes units.Bytes
	// EBitHop is the energy to move one bit across one router+link hop.
	EBitHop units.Joules
	// RouterPower and LinkPower are static power per router / per link,
	// summed into the Table 5 "NoC (router + link)" row.
	RouterPower units.Watts
	LinkPower   units.Watts
}

// MEALibMesh returns the 4x4 mesh of the accelerator layer (16 tiles, one
// per vault). The aggregate NoC power matches Table 5 (0.095 W).
func MEALibMesh() *Config {
	return &Config{
		Width:      4,
		Height:     4,
		LinkBW:     units.GBps(64),
		HopLatency: 2 * units.Nanosecond, // 2-cycle router at 1 GHz
		FlitBytes:  16,
		EBitHop:    0.08e-12,
		// Table 5: NoC total 0.095 W over 16 routers + 24 links.
		RouterPower: 0.095 / 16 * 0.7,
		LinkPower:   0.095 / 24 * 0.3,
	}
}

// validate reports configuration errors.
func (c *Config) validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: non-positive mesh dimensions %dx%d", c.Width, c.Height)
	case c.LinkBW <= 0 || c.FlitBytes <= 0:
		return fmt.Errorf("noc: non-positive link parameters")
	}
	return nil
}

// Tiles returns the number of tiles in the mesh.
func (c *Config) Tiles() int { return c.Width * c.Height }

// Links returns the number of unidirectional link pairs in the mesh.
func (c *Config) Links() int {
	return (c.Width-1)*c.Height + (c.Height-1)*c.Width
}

// StaticPower returns the idle power of the whole NoC.
func (c *Config) StaticPower() units.Watts {
	return units.Watts(float64(c.RouterPower)*float64(c.Tiles()) +
		float64(c.LinkPower)*float64(c.Links()))
}

// tileCoord maps a tile index (vault id) to its mesh coordinate, row-major.
func (c *Config) tileCoord(id int) (Coord, error) {
	if id < 0 || id >= c.Tiles() {
		return Coord{}, fmt.Errorf("noc: tile id %d out of range [0,%d)", id, c.Tiles())
	}
	return Coord{X: id % c.Width, Y: id / c.Width}, nil
}

// Hops returns the XY-routed hop count between two tiles (0 for self).
func (c *Config) Hops(src, dst Coord) int {
	dx := src.X - dst.X
	if dx < 0 {
		dx = -dx
	}
	dy := src.Y - dst.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// route returns the XY route from src to dst, inclusive of both endpoints.
func (c *Config) route(src, dst Coord) []Coord {
	route := []Coord{src}
	cur := src
	for cur.X != dst.X {
		if cur.X < dst.X {
			cur.X++
		} else {
			cur.X--
		}
		route = append(route, cur)
	}
	for cur.Y != dst.Y {
		if cur.Y < dst.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		route = append(route, cur)
	}
	return route
}

// Transfer returns the latency and energy of moving n bytes from src to dst.
// Latency is pipeline-filled: head latency plus serialisation on one link.
func (c *Config) Transfer(src, dst Coord, n units.Bytes) (units.Seconds, units.Joules) {
	if n <= 0 {
		return 0, 0
	}
	hops := c.Hops(src, dst)
	if hops == 0 {
		return 0, 0 // local-memory traffic, not NoC traffic
	}
	head := units.Seconds(float64(hops)) * c.HopLatency
	serial := c.LinkBW.Time(n)
	energy := units.Joules(float64(n) * 8 * float64(hops) * float64(c.EBitHop))
	return head + serial, energy
}
