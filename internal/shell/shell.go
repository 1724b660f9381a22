// Package shell interprets the Linux configuration commands the paper's
// transparency claim revolves around — iproute2, brctl, iptables, ipset and
// sysctl — against a simulated kernel. LinuxFP has no commands of its own:
// these are the only knobs, and the controller watches their effects.
package shell

import (
	"fmt"
	"strconv"
	"strings"

	"linuxfp/internal/fib"
	"linuxfp/internal/kernel"
	"linuxfp/internal/netdev"
	"linuxfp/internal/netfilter"
	"linuxfp/internal/packet"
)

// Shell executes command strings against one kernel.
type Shell struct {
	k *kernel.Kernel
}

// New binds a shell to a kernel.
func New(k *kernel.Kernel) *Shell {
	return &Shell{k: k}
}

// Exec parses and runs one command, returning its textual output.
func (s *Shell) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return "", nil
	}
	switch fields[0] {
	case "ip":
		return s.ip(fields[1:])
	case "brctl":
		return s.brctl(fields[1:])
	case "bridge":
		return s.bridgeCmd(fields[1:])
	case "iptables":
		return s.iptables(fields[1:])
	case "ipset":
		return s.ipset(fields[1:])
	case "ipvsadm":
		return s.ipvsadm(fields[1:])
	case "sysctl":
		return s.sysctl(fields[1:])
	default:
		return "", fmt.Errorf("shell: unknown command %q", fields[0])
	}
}

// ExecAll runs a script of commands, stopping at the first error.
func (s *Shell) ExecAll(script string) (string, error) {
	var out strings.Builder
	for _, line := range strings.Split(script, "\n") {
		res, err := s.Exec(strings.TrimSpace(line))
		if err != nil {
			return out.String(), fmt.Errorf("%q: %w", line, err)
		}
		if res != "" {
			out.WriteString(res)
			if !strings.HasSuffix(res, "\n") {
				out.WriteByte('\n')
			}
		}
	}
	return out.String(), nil
}

func (s *Shell) ip(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("shell: ip: missing object")
	}
	switch args[0] {
	case "link":
		return s.ipLink(args[1:])
	case "addr", "address":
		return s.ipAddr(args[1:])
	case "route":
		return s.ipRoute(args[1:])
	case "neigh", "neighbor", "neighbour":
		return s.ipNeigh(args[1:])
	default:
		return "", fmt.Errorf("shell: ip: unknown object %q", args[0])
	}
}

func (s *Shell) ipLink(args []string) (string, error) {
	if len(args) == 0 || args[0] == "show" {
		var b strings.Builder
		for _, d := range s.k.Devices() {
			state := "DOWN"
			if d.IsUp() {
				state = "UP"
			}
			fmt.Fprintf(&b, "%d: %s: <%s> mtu %d link/ether %s", d.Index, d.Name, state, d.MTU, d.MAC)
			if m := d.Master(); m != 0 {
				if md, ok := s.k.DeviceByIndex(m); ok {
					fmt.Fprintf(&b, " master %s", md.Name)
				}
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	switch args[0] {
	case "add":
		// ip link add <name> type phys|veth [peer name <peer>]|vxlan id <vni> local <ip>
		if len(args) < 4 || args[2] != "type" {
			return "", fmt.Errorf("shell: ip link add <name> type <kind> ...")
		}
		name, kind := args[1], args[3]
		switch kind {
		case "phys", "physical", "dummy":
			s.k.CreateDevice(name, netdev.Physical)
		case "veth":
			peer := name + "-peer"
			for i := 4; i+1 < len(args); i++ {
				if args[i] == "name" {
					peer = args[i+1]
				}
			}
			s.k.CreateVethPair(name, peer)
		case "bridge":
			s.k.CreateBridge(name)
		case "vxlan":
			var vni uint64
			var local packet.Addr
			var err error
			for i := 4; i+1 < len(args); i++ {
				switch args[i] {
				case "id":
					vni, err = strconv.ParseUint(args[i+1], 10, 32)
					if err != nil {
						return "", fmt.Errorf("shell: bad vni %q", args[i+1])
					}
				case "local":
					local, err = packet.ParseAddr(args[i+1])
					if err != nil {
						return "", err
					}
				}
			}
			s.k.CreateVXLAN(name, uint32(vni), local)
		default:
			return "", fmt.Errorf("shell: unknown link type %q", kind)
		}
		return "", nil
	case "set":
		// ip link set <dev> up|down
		if len(args) < 3 {
			return "", fmt.Errorf("shell: ip link set <dev> up|down")
		}
		return "", s.k.SetLinkUp(args[1], args[2] == "up")
	default:
		return "", fmt.Errorf("shell: ip link: unknown action %q", args[0])
	}
}

func (s *Shell) ipAddr(args []string) (string, error) {
	if len(args) == 0 || args[0] == "show" {
		var b strings.Builder
		for _, d := range s.k.Devices() {
			for _, a := range d.Addrs() {
				fmt.Fprintf(&b, "%s: inet %s\n", d.Name, a)
			}
		}
		return b.String(), nil
	}
	// ip addr add|del <cidr> dev <dev>
	if len(args) < 4 || args[2] != "dev" {
		return "", fmt.Errorf("shell: ip addr add|del <cidr> dev <dev>")
	}
	p, err := packet.ParsePrefix(args[1])
	if err != nil {
		return "", err
	}
	switch args[0] {
	case "add":
		return "", s.k.AddAddr(args[3], p)
	case "del":
		return "", s.k.DelAddr(args[3], p)
	default:
		return "", fmt.Errorf("shell: ip addr: unknown action %q", args[0])
	}
}

func (s *Shell) ipRoute(args []string) (string, error) {
	if len(args) == 0 || args[0] == "show" {
		var b strings.Builder
		for _, r := range s.k.FIB.Main().Routes() {
			fmt.Fprintf(&b, "%s", r.Prefix)
			if r.Gateway != 0 {
				fmt.Fprintf(&b, " via %s", r.Gateway)
			}
			if d, ok := s.k.DeviceByIndex(r.OutIf); ok {
				fmt.Fprintf(&b, " dev %s", d.Name)
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	switch args[0] {
	case "add":
		// ip route add <prefix> [via <gw>] dev <dev> | via <gw> [dev <dev>]
		if len(args) < 2 {
			return "", fmt.Errorf("shell: ip route add <prefix> ...")
		}
		prefixStr := args[1]
		if prefixStr == "default" {
			prefixStr = "0.0.0.0/0"
		}
		p, err := packet.ParsePrefix(prefixStr)
		if err != nil {
			return "", err
		}
		r := fib.Route{Prefix: p}
		for i := 2; i+1 < len(args); i++ {
			switch args[i] {
			case "via":
				gw, err := packet.ParseAddr(args[i+1])
				if err != nil {
					return "", err
				}
				r.Gateway = gw
			case "dev":
				d, ok := s.k.DeviceByName(args[i+1])
				if !ok {
					return "", fmt.Errorf("shell: no device %q", args[i+1])
				}
				r.OutIf = d.Index
			}
		}
		if r.OutIf == 0 && r.Gateway != 0 {
			// Resolve the egress from the gateway's connected subnet.
			if rt, ok := s.k.FIB.Main().Lookup(r.Gateway); ok {
				r.OutIf = rt.OutIf
			}
		}
		if r.OutIf == 0 {
			return "", fmt.Errorf("shell: route needs dev or resolvable gateway")
		}
		s.k.AddRoute(r)
		return "", nil
	case "del":
		if len(args) < 2 {
			return "", fmt.Errorf("shell: ip route del <prefix>")
		}
		p, err := packet.ParsePrefix(args[1])
		if err != nil {
			return "", err
		}
		if !s.k.DelRoute(p) {
			return "", fmt.Errorf("shell: no route %s", p)
		}
		return "", nil
	default:
		return "", fmt.Errorf("shell: ip route: unknown action %q", args[0])
	}
}

func (s *Shell) ipNeigh(args []string) (string, error) {
	if len(args) == 0 || args[0] == "show" {
		var b strings.Builder
		for _, e := range s.k.Neigh.Entries(s.k.Now()) {
			dev := ""
			if d, ok := s.k.DeviceByIndex(e.IfIndex); ok {
				dev = d.Name
			}
			fmt.Fprintf(&b, "%s dev %s lladdr %s %s\n", e.IP, dev, e.MAC, e.State)
		}
		return b.String(), nil
	}
	// ip neigh add <ip> lladdr <mac> dev <dev>
	if args[0] != "add" || len(args) < 6 || args[2] != "lladdr" || args[4] != "dev" {
		return "", fmt.Errorf("shell: ip neigh add <ip> lladdr <mac> dev <dev>")
	}
	ip, err := packet.ParseAddr(args[1])
	if err != nil {
		return "", err
	}
	mac, err := packet.ParseHWAddr(args[3])
	if err != nil {
		return "", err
	}
	return "", s.k.AddNeigh(args[5], ip, mac)
}

func (s *Shell) brctl(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("shell: brctl <addbr|delbr|addif|delif|stp|show>")
	}
	switch args[0] {
	case "addbr":
		if len(args) < 2 {
			return "", fmt.Errorf("shell: brctl addbr <bridge>")
		}
		s.k.CreateBridge(args[1])
		return "", s.k.SetLinkUp(args[1], true)
	case "delbr":
		if len(args) < 2 {
			return "", fmt.Errorf("shell: brctl delbr <bridge>")
		}
		return "", s.k.DeleteBridge(args[1])
	case "addif":
		if len(args) < 3 {
			return "", fmt.Errorf("shell: brctl addif <bridge> <dev>")
		}
		return "", s.k.AddBridgePort(args[1], args[2])
	case "delif":
		if len(args) < 3 {
			return "", fmt.Errorf("shell: brctl delif <bridge> <dev>")
		}
		return "", s.k.DelBridgePort(args[1], args[2])
	case "stp":
		if len(args) < 3 {
			return "", fmt.Errorf("shell: brctl stp <bridge> on|off")
		}
		return "", s.k.SetBridgeSTP(args[1], args[2] == "on")
	case "show":
		var b strings.Builder
		for _, d := range s.k.Devices() {
			br, ok := s.k.Bridge(d.Index)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s\tstp %v\tports:", d.Name, br.STPEnabled())
			for _, p := range br.Ports() {
				if pd, ok := s.k.DeviceByIndex(p); ok {
					fmt.Fprintf(&b, " %s", pd.Name)
				}
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("shell: brctl: unknown action %q", args[0])
	}
}

// bridgeCmd implements the iproute2 `bridge` tool's vlan and fdb objects.
func (s *Shell) bridgeCmd(args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("shell: bridge <vlan|fdb> add ...")
	}
	switch args[0] {
	case "vlan":
		// bridge vlan add dev <dev> vid <id> [pvid] [untagged]
		if args[1] != "add" {
			return "", fmt.Errorf("shell: bridge vlan add ...")
		}
		var devName string
		var vid uint64
		pvid, untagged := false, false
		var err error
		for i := 2; i < len(args); i++ {
			switch args[i] {
			case "dev":
				devName = args[i+1]
				i++
			case "vid":
				vid, err = strconv.ParseUint(args[i+1], 10, 12)
				if err != nil {
					return "", fmt.Errorf("shell: bad vid %q", args[i+1])
				}
				i++
			case "pvid":
				pvid = true
			case "untagged":
				untagged = true
			}
		}
		dev, ok := s.k.DeviceByName(devName)
		if !ok {
			return "", fmt.Errorf("shell: no device %q", devName)
		}
		br, ok := s.k.Bridge(dev.Master())
		if !ok {
			return "", fmt.Errorf("shell: %q is not a bridge port", devName)
		}
		port, ok := br.Port(dev.Index)
		if !ok {
			return "", fmt.Errorf("shell: %q not enslaved", devName)
		}
		if pvid {
			port.PVID = uint16(vid)
		} else {
			port.Tagged[uint16(vid)] = true
		}
		if untagged {
			port.Untagged[uint16(vid)] = true
		}
		return "", nil
	case "fdb":
		// bridge fdb add <mac> dev <dev> [dst <ip>] [vlan <id>]
		if args[1] != "add" || len(args) < 5 {
			return "", fmt.Errorf("shell: bridge fdb add <mac> dev <dev> [dst <ip>]")
		}
		mac, err := packet.ParseHWAddr(args[2])
		if err != nil {
			return "", err
		}
		var devName string
		var dst packet.Addr
		var vlan uint64
		for i := 3; i+1 < len(args); i++ {
			switch args[i] {
			case "dev":
				devName = args[i+1]
			case "dst":
				dst, err = packet.ParseAddr(args[i+1])
				if err != nil {
					return "", err
				}
			case "vlan":
				vlan, err = strconv.ParseUint(args[i+1], 10, 12)
				if err != nil {
					return "", err
				}
			}
		}
		dev, ok := s.k.DeviceByName(devName)
		if !ok {
			return "", fmt.Errorf("shell: no device %q", devName)
		}
		if dst != 0 {
			// A VTEP entry: <mac> reachable via the remote endpoint.
			return "", s.k.VXLANAddFDB(devName, mac, dst)
		}
		br, ok := s.k.Bridge(dev.Master())
		if !ok {
			return "", fmt.Errorf("shell: %q is not a bridge port", devName)
		}
		br.AddStatic(mac, uint16(vlan), dev.Index)
		return "", nil
	default:
		return "", fmt.Errorf("shell: bridge: unknown object %q", args[0])
	}
}

func (s *Shell) iptables(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("shell: iptables ...")
	}
	var (
		action, chain string
		rule          netfilter.Rule
		pos           int
	)
	i := 0
	for i < len(args) {
		switch args[i] {
		case "-A", "-I", "-D", "-F", "-P", "-L", "-N":
			action = args[i]
			if i+1 < len(args) {
				chain = args[i+1]
				i++
			}
			if action == "-I" && i+1 < len(args) {
				if n, err := strconv.Atoi(args[i+1]); err == nil {
					pos = n
					i++
				}
			}
			if action == "-D" && i+1 < len(args) {
				if n, err := strconv.Atoi(args[i+1]); err == nil {
					pos = n
					i++
				}
			}
		case "-s":
			p, err := packet.ParsePrefix(args[i+1])
			if err != nil {
				return "", err
			}
			rule.Match.Src = &p
			i++
		case "-d":
			p, err := packet.ParsePrefix(args[i+1])
			if err != nil {
				return "", err
			}
			rule.Match.Dst = &p
			i++
		case "-p":
			switch args[i+1] {
			case "tcp":
				rule.Match.Proto = packet.ProtoTCP
			case "udp":
				rule.Match.Proto = packet.ProtoUDP
			case "icmp":
				rule.Match.Proto = packet.ProtoICMP
			default:
				return "", fmt.Errorf("shell: unknown protocol %q", args[i+1])
			}
			i++
		case "--dport":
			n, err := strconv.ParseUint(args[i+1], 10, 16)
			if err != nil {
				return "", err
			}
			rule.Match.DstPort = uint16(n)
			i++
		case "--sport":
			n, err := strconv.ParseUint(args[i+1], 10, 16)
			if err != nil {
				return "", err
			}
			rule.Match.SrcPort = uint16(n)
			i++
		case "-i":
			if d, ok := s.k.DeviceByName(args[i+1]); ok {
				rule.Match.InIf = d.Index
			}
			i++
		case "-o":
			if d, ok := s.k.DeviceByName(args[i+1]); ok {
				rule.Match.OutIf = d.Index
			}
			i++
		case "-m":
			if args[i+1] == "set" && i+4 < len(args) && args[i+2] == "--match-set" {
				if args[i+4] == "src" {
					rule.Match.SrcSet = args[i+3]
				} else {
					rule.Match.DstSet = args[i+3]
				}
				i += 4
			} else {
				i++
			}
		case "-j":
			switch args[i+1] {
			case "ACCEPT":
				rule.Target = netfilter.VerdictAccept
			case "DROP":
				rule.Target = netfilter.VerdictDrop
			case "RETURN":
				rule.Target = netfilter.VerdictReturn
			default:
				rule.Jump = args[i+1]
			}
			i++
		}
		i++
	}
	switch action {
	case "-A":
		return "", s.k.IptAppend(chain, rule)
	case "-I":
		if pos == 0 {
			pos = 1
		}
		return "", s.k.IptInsert(chain, pos, rule)
	case "-D":
		return "", s.k.IptDelete(chain, pos)
	case "-F":
		return "", s.k.IptFlush(chain)
	case "-N":
		return "", s.k.NF.NewChain(chain)
	case "-P":
		// iptables -P CHAIN DROP|ACCEPT: the policy rode in via -j-less
		// trailing arg; find it.
		policy := netfilter.VerdictAccept
		if args[len(args)-1] == "DROP" {
			policy = netfilter.VerdictDrop
		}
		return "", s.k.NF.SetPolicy(chain, policy)
	case "-L":
		c, ok := s.k.NF.Chain(chain)
		if !ok {
			return "", fmt.Errorf("shell: no chain %q", chain)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Chain %s (policy %s)\n", c.Name, c.Policy)
		for i, r := range c.Rules {
			fmt.Fprintf(&b, "%4d %s", i+1, r.Target)
			if r.Match.Src != nil {
				fmt.Fprintf(&b, " -s %s", r.Match.Src)
			}
			if r.Match.Dst != nil {
				fmt.Fprintf(&b, " -d %s", r.Match.Dst)
			}
			fmt.Fprintf(&b, " (pkts %d)\n", r.Packets)
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("shell: iptables: missing action")
	}
}

func (s *Shell) ipset(args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("shell: ipset <create|add|del|destroy> ...")
	}
	switch args[0] {
	case "create":
		typ := "hash:net"
		if len(args) >= 3 {
			typ = args[2]
		}
		_, err := s.k.IpsetCreate(args[1], typ)
		return "", err
	case "add":
		if len(args) < 3 {
			return "", fmt.Errorf("shell: ipset add <set> <cidr>")
		}
		p, err := packet.ParsePrefix(args[2])
		if err != nil {
			return "", err
		}
		return "", s.k.IpsetAdd(args[1], p)
	case "del":
		if len(args) < 3 {
			return "", fmt.Errorf("shell: ipset del <set> <cidr>")
		}
		set, ok := s.k.NF.Set(args[1])
		if !ok {
			return "", fmt.Errorf("shell: no set %q", args[1])
		}
		p, err := packet.ParsePrefix(args[2])
		if err != nil {
			return "", err
		}
		if !set.Del(p) {
			return "", fmt.Errorf("shell: %s not in %s", p, args[1])
		}
		return "", nil
	case "destroy":
		if !s.k.NF.DestroySet(args[1]) {
			return "", fmt.Errorf("shell: no set %q", args[1])
		}
		return "", nil
	default:
		return "", fmt.Errorf("shell: ipset: unknown action %q", args[0])
	}
}

// ipvsadm configures the kernel's L4 load balancer:
//
//	ipvsadm -A -t <vip:port> [-s rr|sh]   add a virtual service
//	ipvsadm -a -t <vip:port> -r <addr>    add a real server
//	ipvsadm -D -t <vip:port>              delete a service
//	ipvsadm -L                            list
func (s *Shell) ipvsadm(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("shell: ipvsadm -A|-a|-D|-L ...")
	}
	var (
		action, svcSpec, backend string
		sched                    = "rr"
		proto                    = packet.ProtoTCP
	)
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-A", "-a", "-D", "-L":
			action = args[i]
		case "-t", "-u":
			if args[i] == "-u" {
				proto = packet.ProtoUDP
			}
			if i+1 < len(args) {
				svcSpec = args[i+1]
				i++
			}
		case "-r":
			if i+1 < len(args) {
				backend = args[i+1]
				i++
			}
		case "-s":
			if i+1 < len(args) {
				sched = args[i+1]
				i++
			}
		}
	}
	if action == "-L" {
		var b strings.Builder
		for _, svc := range s.k.IPVSServices() {
			fmt.Fprintf(&b, "TCP %s:%d %s ->", svc.Key.VIP, svc.Key.Port, svc.Scheduler)
			for _, be := range svc.Backends {
				fmt.Fprintf(&b, " %s", be)
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	if svcSpec == "" {
		return "", fmt.Errorf("shell: ipvsadm needs -t <vip:port>")
	}
	host, portStr, found := strings.Cut(svcSpec, ":")
	if !found {
		return "", fmt.Errorf("shell: bad service %q (want vip:port)", svcSpec)
	}
	vip, err := packet.ParseAddr(host)
	if err != nil {
		return "", err
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return "", fmt.Errorf("shell: bad port %q", portStr)
	}
	key := kernel.IPVSKey{VIP: vip, Port: uint16(port), Proto: proto}
	switch action {
	case "-A":
		return "", s.k.IPVSAddService(key, sched)
	case "-a":
		if backend == "" {
			return "", fmt.Errorf("shell: ipvsadm -a needs -r <backend>")
		}
		be, err := packet.ParseAddr(backend)
		if err != nil {
			return "", err
		}
		return "", s.k.IPVSAddBackend(key, be)
	case "-D":
		if !s.k.IPVSDelService(key) {
			return "", fmt.Errorf("shell: no service %s", svcSpec)
		}
		return "", nil
	default:
		return "", fmt.Errorf("shell: ipvsadm: missing action")
	}
}

func (s *Shell) sysctl(args []string) (string, error) {
	// sysctl -w key=value | sysctl key
	if len(args) >= 2 && args[0] == "-w" {
		key, value, found := strings.Cut(args[1], "=")
		if !found {
			return "", fmt.Errorf("shell: sysctl -w key=value")
		}
		s.k.SetSysctl(key, value)
		return "", nil
	}
	if len(args) == 1 {
		return fmt.Sprintf("%s = %s\n", args[0], s.k.Sysctl(args[0])), nil
	}
	return "", fmt.Errorf("shell: sysctl -w key=value | sysctl <key>")
}
