// Package mealibd is analyzer test data: the server keeps no shadow queue,
// parses no plan's descriptor, and its connections are one of the places a go
// statement may start.
package mealibd

import "mealib/internal/descriptor"

type conn struct {
	outstanding int // want `one-tenant: outstanding`
}

func (c *conn) awaitConflicting() {} // want `one-tenant: awaitConflicting`

func (c *conn) serve() { go c.awaitConflicting() } // want `one-tenant: awaitConflicting`

// A plan's scopes are the install's; the server parses no descriptor again.
func loops(d *descriptor.Descriptor) bool {
	scopes, _ := d.Scopes() // want `one-walk: descriptor\.Descriptor\.Scopes`
	return len(scopes) > 1
}
