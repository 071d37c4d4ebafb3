let ethernet_bytes = 18
let ipv4_bytes = 20
let udp_bytes = 8
let bth_bytes = 12
let aeth_bytes = 4
let icrc_bytes = 4
let data_overhead = ethernet_bytes + ipv4_bytes + udp_bytes + bth_bytes + icrc_bytes
let ack_bytes = data_overhead + aeth_bytes
let cnp_bytes = data_overhead + aeth_bytes
let roce_dst_port = 4791

type ecn = Not_ect | Ect | Ce

let pp_ecn ppf = function
  | Not_ect -> Format.pp_print_string ppf "not-ect"
  | Ect -> Format.pp_print_string ppf "ect"
  | Ce -> Format.pp_print_string ppf "ce"
