package dag

// pinLabel is the component label that pins a component to a specific node,
// the way a Kubernetes nodeSelector pins a pod. Pinned components model
// endpoints that cannot move: video-conference participants at their mesh
// node, the workload generator host, a camera attached to a pole.
const pinLabel = "bass.dev/pin"

// Pin returns a label map pinning a component to the named node.
func Pin(node string) map[string]string {
	return map[string]string{pinLabel: node}
}

// PinnedTo reports the node the component is pinned to, or "" if unpinned.
func (c *Component) PinnedTo() string {
	if c.Labels == nil {
		return ""
	}
	return c.Labels[pinLabel]
}

// Pinned reports whether the component is pinned to a node.
func (c *Component) Pinned() bool { return c.PinnedTo() != "" }
