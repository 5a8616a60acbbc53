package transport

// ParkedFor is the queue length ep's owner is parked until in Recv, 0 when
// it is not parked: what an external test sees of the wake rule. ep is a
// chan or TCP endpoint.
func ParkedFor(ep Endpoint) int { return parkedFor(boxOf(ep)) }
