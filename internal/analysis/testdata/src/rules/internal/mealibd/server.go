// Package mealibd is analyzer test data: the server keeps no shadow queue,
// and its connections are one of the places a go statement may start.
package mealibd

type conn struct {
	outstanding int // want `one-tenant: outstanding`
}

func (c *conn) awaitConflicting() {} // want `one-tenant: awaitConflicting`

func (c *conn) serve() { go c.awaitConflicting() } // want `one-tenant: awaitConflicting`
