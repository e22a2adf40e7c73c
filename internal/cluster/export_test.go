package cluster

import "time"

// SetHeartbeat shortens c's heartbeat: probes every interval, and when
// misses > 0, that many consecutive failed probes declare a worker dead.
func (c *Coordinator) SetHeartbeat(interval time.Duration, misses int) {
	c.heartbeatInterval, c.heartbeatMisses = interval, misses
}
