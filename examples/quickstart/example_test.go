package main

// Example runs the example end to end. The builder, the XML writer, the
// validator and the queries are deterministic, so it pins the whole output:
// the Listing 1 document, the validation report and the query answers.
func Example() {
	main()
	// Output:
	// --- PDL document ---
	// <?xml version="1.0" encoding="UTF-8"?>
	// <Platform name="gpgpu-node" schemaVersion="1.0" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
	//   <Master id="0" quantity="1">
	//     <PUDescriptor>
	//       <Property fixed="true">
	//         <name>ARCHITECTURE</name>
	//         <value>x86</value>
	//       </Property>
	//       <Property fixed="true">
	//         <name>CLOCK_FREQUENCY</name>
	//         <value unit="MHz">2660</value>
	//       </Property>
	//     </PUDescriptor>
	//     <LogicGroupAttribute>cpuset</LogicGroupAttribute>
	//     <Worker id="1" quantity="1">
	//       <PUDescriptor>
	//         <Property fixed="true">
	//           <name>ARCHITECTURE</name>
	//           <value>gpu</value>
	//         </Property>
	//         <Property fixed="true">
	//           <name>DEVICE_NAME</name>
	//           <value>GeForce GTX 480</value>
	//         </Property>
	//       </PUDescriptor>
	//       <LogicGroupAttribute>gpuset</LogicGroupAttribute>
	//     </Worker>
	//     <Interconnect id="ic0" type="rDMA" from="0" to="1" scheme="" duplex="true">
	//       <ICDescriptor>
	//         <Property fixed="true">
	//           <name>BANDWIDTH</name>
	//           <value unit="GB/s">5</value>
	//         </Property>
	//         <Property fixed="true">
	//           <name>LATENCY</name>
	//           <value unit="us">10</value>
	//         </Property>
	//       </ICDescriptor>
	//     </Interconnect>
	//   </Master>
	// </Platform>
	// --- validation ---
	// ok
	// --- queries ---
	// gpu workers: 1 (1)
	// cpuset group: [0]
	// route 0 -> 1: rDMA link
	// round-trip: 2 PUs, master controls 1 unit(s)
}
