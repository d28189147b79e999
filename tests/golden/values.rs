// Golden metric bit patterns for tests/golden_determinism.rs.
// Regenerate (only for intentional semantic changes) with:
//   GOLDEN_REGEN=1 cargo test --release --test golden_determinism -- --nocapture
const GOLDEN_SEED_11: &[u64] = &[
    0x3ff0000000000000, // e1.delivery_ratio = 1
    0x4000cccccccccccd, // e1.mean_hops = 2.1
    0x40d9e3999999999a, // e1.mean_latency_us = 26510.4
    0x4055000000000000, // e1.sent_data = 84
    0x4070600000000000, // e1.sent_control = 262
    0x4090340000000000, // e1.received = 1037
    0x0000000000000000, // e1.collided = 0
    0x0000000000000000, // e1.csma_deferrals = 0
    0x3ff44189374bc6ac, // e1.total_energy = 1.266000000000001
    0x3f78cf546689a1e2, // e1.energy_d2 = 0.006057100000000011
    0x402e000000000000, // e3.n=20 spr m=1 lifetime_rounds = 15
    0x403bc71e7797fa37, // e3.n=20 spr m=1 optimal_bound_rounds = 27.7778086420096
    0x403c000000000000, // e3.n=20 spr m=3 lifetime_rounds = 28
    0x4049000d1b7854ce, // e3.n=20 spr m=3 optimal_bound_rounds = 50.000400003200056
    0x4041000000000000, // e3.n=20 mlr m=3 lifetime_rounds = 34
    0x4049000d1b7854ce, // e3.n=20 mlr m=3 optimal_bound_rounds = 50.000400003200056
    0x40a2fe0000000000, // e5.mlr incremental rounds=6 control_frames_total = 2431
    0x405e800000000000, // e5.mlr incremental rounds=6 control_frames_steady_state = 122
    0x3ff0000000000000, // e5.mlr incremental rounds=6 delivery_ratio = 1
    0x40b4f90000000000, // e5.mlr reset_each_round rounds=6 control_frames_total = 5369
    0x409adc0000000000, // e5.mlr reset_each_round rounds=6 control_frames_steady_state = 1719
    0x3ff0000000000000, // e5.mlr reset_each_round rounds=6 delivery_ratio = 1
    0x40a2520000000000, // e7.mlr total_frames = 2345
    0x40fad31000000000, // e7.mlr total_bytes = 109873
    0x40f634e000000000, // e7.mlr control_bytes = 90958
    0x0000000000000000, // e7.mlr security_bytes = 0
    0x40d948a3d70a3d71, // e7.mlr mean_latency_us = 25890.56
    0x3ff0000000000000, // e7.mlr delivery_ratio = 1
    0x40277b645a1c9db9, // e7.mlr sensor_energy_j = 11.740999999993493
    0x40d19c0000000000, // e7.secmlr total_frames = 18032
    0x41382d6300000000, // e7.secmlr total_bytes = 1584483
    0x4132e47e00000000, // e7.secmlr control_bytes = 1238142
    0x4113b1d400000000, // e7.secmlr security_bytes = 322677
    0x410f41162fc962fd, // e7.secmlr mean_latency_us = 256034.77333333335
    0x3ff0000000000000, // e7.secmlr delivery_ratio = 1
    0x4060ec74538eedf1, // e7.secmlr sensor_energy_j = 135.389199999961
    0x3ff0000000000000, // e8.leach healthy delivery_ratio = 1
    0x3fe3333333333333, // e8.leach heads_killed delivery_ratio = 0.6
    0x3fee666666666666, // e8.leach next_round delivery_ratio = 0.95
    0x3ff0000000000000, // e8.mlr healthy delivery_ratio = 1
    0x3fea222222222222, // e8.mlr gateway_killed delivery_ratio = 0.8166666666666667
    0x3ff0000000000000, // e8.mlr after_redirect delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round0_delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round1_delivery_ratio = 1
    0x405e000000000000, // e12.three-tier wmg_absorbed = 120
    0x405e000000000000, // e12.three-tier uplinked = 120
    0x405e000000000000, // e12.three-tier base_station_received = 120
    0x0000000000000000, // e12.backbone healthy backbone_asymmetry = 0
    0x0000000000000000, // e12.backbone healthy base_silence = 0
    0x0000000000000000, // e12.base killed backbone_asymmetry = 0
    0x3ff0000000000000, // e12.base killed base_silence = 1
    0x3ff0000000000000, // e12.base killed accused_base_station = 1
    0x3ff0000000000000, // e15.flooding delivery_ratio = 1
    0x4099000000000000, // e15.flooding data_frames = 1600
    0x0000000000000000, // e15.flooding control_frames = 0
    0x40f89c0000000000, // e15.flooding total_bytes = 100800
    0x4023d70a3d7097c0, // e15.flooding sensor_energy_j = 9.919999999994502
    0x3fc999999999999a, // e15.gossiping delivery_ratio = 0.2
    0x40a2100000000000, // e15.gossiping data_frames = 2312
    0x0000000000000000, // e15.gossiping control_frames = 0
    0x4101c7c000000000, // e15.gossiping total_bytes = 145656
    0x401276c8b4394cd0, // e15.gossiping sensor_energy_j = 4.615999999997442
    0x3ff0000000000000, // e15.spin delivery_ratio = 1
    0x4099000000000000, // e15.spin data_frames = 1600
    0x40a9000000000000, // e15.spin control_frames = 3200
    0x4103ba0000000000, // e15.spin total_bytes = 161600
    0x40303d70a3d70058, // e15.spin sensor_energy_j = 16.239999999991
    0x3ff0000000000000, // e15.mcfa delivery_ratio = 1
    0x4071800000000000, // e15.mcfa data_frames = 280
    0x4044800000000000, // e15.mcfa control_frames = 41
    0x40d1bf4000000000, // e15.mcfa total_bytes = 18173
    0x3ffe083126e96688, // e15.mcfa sensor_energy_j = 1.8769999999989597
    0x3ff0000000000000, // e15.leach delivery_ratio = 1
    0x4044000000000000, // e15.leach data_frames = 40
    0x4010000000000000, // e15.leach control_frames = 4
    0x40a3d00000000000, // e15.leach total_bytes = 2536
    0x3fb604189374af00, // e15.leach sensor_energy_j = 0.08599999999995234
    0x3ff0000000000000, // e15.pegasis delivery_ratio = 1
    0x4044000000000000, // e15.pegasis data_frames = 40
    0x0000000000000000, // e15.pegasis control_frames = 0
    0x40a0900000000000, // e15.pegasis total_bytes = 2120
    0x3fb4395810624180, // e15.pegasis sensor_energy_j = 0.07899999999995622
    0x3ff0000000000000, // e15.spr_m1 delivery_ratio = 1
    0x4069a00000000000, // e15.spr_m1 data_frames = 205
    0x409b0c0000000000, // e15.spr_m1 control_frames = 1731
    0x40f70cc000000000, // e15.spr_m1 total_bytes = 94412
    0x4022e978d4fde830, // e15.spr_m1 sensor_energy_j = 9.45599999999476
    0x4039000000000000, // e16.slack=0 lifetime_rounds = 25
    0x4016ceacc113ab88, // e16.slack=0 energy_d2_round8 = 5.701830879998745
    0x3fefade5c5d816ce, // e16.slack=0 delivery_ratio = 0.9899777282850779
    0x3ffd52e044309bbb, // e16.slack=0 mean_hops = 1.8327334083239595
    0x403d000000000000, // e16.slack=2 lifetime_rounds = 29
    0x400fdee6eb31093b, // e16.slack=2 energy_d2_round8 = 3.9838388799991242
    0x3feff11786df27d5, // e16.slack=2 delivery_ratio = 0.9981801637852593
    0x4000f8dbec06292a, // e16.slack=2 mean_hops = 2.1215132178669096
    0x3ff0000000000000, // e2.round 1 occupied ["A", "B", "C"] selected_place_id = 1
    0x3ff0000000000000, // e2.round 1 paper_selects B selected_place_paper = 1
    0x4018000000000000, // e2.round 1 selected_hops = 6
    0x4018000000000000, // e2.round 1 paper_hops = 6
    0x4008000000000000, // e2.round 1 table_entries = 3
    0x4008000000000000, // e2.round 2 occupied ["A", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 2 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 2 selected_hops = 5
    0x4014000000000000, // e2.round 2 paper_hops = 5
    0x4010000000000000, // e2.round 2 table_entries = 4
    0x4008000000000000, // e2.round 3 occupied ["E", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 3 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 3 selected_hops = 5
    0x4014000000000000, // e2.round 3 paper_hops = 5
    0x4014000000000000, // e2.round 3 table_entries = 5
    0x405ac00000000000, // e10.alpha=0 gw0_absorbed = 107
    0x4040800000000000, // e10.alpha=0 gw1_absorbed = 33
    0x3fe0ea0ea0ea0ea1, // e10.alpha=0 load_imbalance = 0.5285714285714286
    0x3ff0000000000000, // e10.alpha=0 delivery_ratio = 1
    0x4057000000000000, // e10.alpha=4 gw0_absorbed = 92
    0x4048000000000000, // e10.alpha=4 gw1_absorbed = 48
    0x3fd41d41d41d41d4, // e10.alpha=4 load_imbalance = 0.3142857142857143
    0x3ff0000000000000, // e10.alpha=4 delivery_ratio = 1
    0x3ff0000000000000, // e13.all_awake awake_fraction = 1
    0x3ff0000000000000, // e13.all_awake delivery_ratio = 1
    0x404bf3f7ced90580, // e13.all_awake sensor_energy_j = 55.905999999969026
    0x40674b4e81b4d9eb, // e13.all_awake energy_per_delivery_mj = 186.3533333332301
    0x3fdd70a3d70a3d71, // e13.gaf awake_fraction = 0.46
    0x3ff0000000000000, // e13.gaf delivery_ratio = 1
    0x402484189374afea, // e13.gaf sensor_energy_j = 10.257999999994315
    0x4052955555554a03, // e13.gaf energy_per_delivery_mj = 74.33333333329215
    0x3ff0000000000000, // e14.mlr loss=0 delivery_ratio = 1
    0x3ff0000000000000, // e14.secmlr loss=0 delivery_ratio = 1
    0x3fee000000000000, // e14.mlr loss=0.02 delivery_ratio = 0.9375
    0x3feecccccccccccd, // e14.secmlr loss=0.02 delivery_ratio = 0.9625
    0x3fed333333333333, // e14.mlr loss=0.05 delivery_ratio = 0.9125
    0x3feb99999999999a, // e14.secmlr loss=0.05 delivery_ratio = 0.8625
    0x3fe999999999999a, // e14.mlr loss=0.1 delivery_ratio = 0.8
    0x3fe999999999999a, // e14.secmlr loss=0.1 delivery_ratio = 0.8
    0x3ff0000000000000, // e14.mlr collisions=false csma=false delivery_ratio = 1
    0x0000000000000000, // e14.mlr collisions=false csma=false collided_frames = 0
    0x3fd0cccccccccccd, // e14.mlr collisions=true csma=false delivery_ratio = 0.2625
    0x40b4190000000000, // e14.mlr collisions=true csma=false collided_frames = 5145
    0x3fe0000000000000, // e14.mlr collisions=true csma=true delivery_ratio = 0.5
    0x40a1d00000000000, // e14.mlr collisions=true csma=true collided_frames = 2280
    0x3ff0000000000000, // e6.mlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.mlr vs blackhole delivery_ratio = 0.5
    0x0000000000000000, // e6.mlr vs sinkhole delivery_ratio = 0
    0x3ff0000000000000, // e6.mlr vs replay delivery_ratio = 1
    0x4079000000000000, // e6.mlr vs replay duplicate_deliveries = 400
    0x0000000000000000, // e6.mlr vs false_announce delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs hello_flood delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole_guarded delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.secmlr vs blackhole delivery_ratio = 0.5
    0x3ff0000000000000, // e6.secmlr vs sinkhole delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs replay delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs replay duplicate_deliveries = 0
    0x3ff0000000000000, // e6.secmlr vs false_announce delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs hello_flood delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs wormhole delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs wormhole_guarded delivery_ratio = 1
];
const GOLDEN_SEED_23: &[u64] = &[
    0x3ff0000000000000, // e1.delivery_ratio = 1
    0x3ffccccccccccccd, // e1.mean_hops = 1.8
    0x40d91ecccccccccd, // e1.mean_latency_us = 25723.2
    0x4052000000000000, // e1.sent_data = 72
    0x4074f00000000000, // e1.sent_control = 335
    0x4099e80000000000, // e1.received = 1658
    0x0000000000000000, // e1.collided = 0
    0x0000000000000000, // e1.csma_deferrals = 0
    0x3ffeb851eb851ec2, // e1.total_energy = 1.9200000000000021
    0x3f8a3a08398a6557, // e1.energy_d2 = 0.012806000000000024
    0x402a000000000000, // e3.n=20 spr m=1 lifetime_rounds = 13
    0x40356db8764cb502, // e3.n=20 spr m=1 optimal_bound_rounds = 21.428595918395338
    0x4030000000000000, // e3.n=20 spr m=3 lifetime_rounds = 16
    0x404900068dba728e, // e3.n=20 spr m=3 optimal_bound_rounds = 50.00020000079995
    0x4041000000000000, // e3.n=20 mlr m=3 lifetime_rounds = 34
    0x404900068dba728e, // e3.n=20 mlr m=3 optimal_bound_rounds = 50.00020000079995
    0x40a2620000000000, // e5.mlr incremental rounds=6 control_frames_total = 2353
    0x405e800000000000, // e5.mlr incremental rounds=6 control_frames_steady_state = 122
    0x3ff0000000000000, // e5.mlr incremental rounds=6 delivery_ratio = 1
    0x40b5ec0000000000, // e5.mlr reset_each_round rounds=6 control_frames_total = 5612
    0x409d800000000000, // e5.mlr reset_each_round rounds=6 control_frames_steady_state = 1888
    0x3ff0000000000000, // e5.mlr reset_each_round rounds=6 delivery_ratio = 1
    0x40a2240000000000, // e7.mlr total_frames = 2322
    0x40fa018000000000, // e7.mlr total_bytes = 106520
    0x40f57fc000000000, // e7.mlr control_bytes = 88060
    0x0000000000000000, // e7.mlr security_bytes = 0
    0x40d9f206d3a06d3a, // e7.mlr mean_latency_us = 26568.106666666667
    0x3ff0000000000000, // e7.mlr delivery_ratio = 1
    0x402b5cac0831163d, // e7.mlr sensor_energy_j = 13.680999999992418
    0x40d1778000000000, // e7.secmlr total_frames = 17886
    0x4137aac000000000, // e7.secmlr total_bytes = 1551040
    0x41326a5a00000000, // e7.secmlr control_bytes = 1206874
    0x4113b1d400000000, // e7.secmlr security_bytes = 322677
    0x410f2fc0da740da7, // e7.secmlr mean_latency_us = 255480.10666666666
    0x3ff0000000000000, // e7.secmlr delivery_ratio = 1
    0x4064abf972474153, // e7.secmlr sensor_energy_j = 165.37419999997164
    0x3ff0000000000000, // e8.leach healthy delivery_ratio = 1
    0x3fd4444444444444, // e8.leach heads_killed delivery_ratio = 0.31666666666666665
    0x3feb333333333333, // e8.leach next_round delivery_ratio = 0.85
    0x3ff0000000000000, // e8.mlr healthy delivery_ratio = 1
    0x3fe3333333333333, // e8.mlr gateway_killed delivery_ratio = 0.6
    0x3ff0000000000000, // e8.mlr after_redirect delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round0_delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round1_delivery_ratio = 1
    0x405e000000000000, // e12.three-tier wmg_absorbed = 120
    0x405e000000000000, // e12.three-tier uplinked = 120
    0x405e000000000000, // e12.three-tier base_station_received = 120
    0x0000000000000000, // e12.backbone healthy backbone_asymmetry = 0
    0x0000000000000000, // e12.backbone healthy base_silence = 0
    0x0000000000000000, // e12.base killed backbone_asymmetry = 0
    0x3ff0000000000000, // e12.base killed base_silence = 1
    0x3ff0000000000000, // e12.base killed accused_base_station = 1
    0x3ff0000000000000, // e15.flooding delivery_ratio = 1
    0x4099000000000000, // e15.flooding data_frames = 1600
    0x0000000000000000, // e15.flooding control_frames = 0
    0x40f89c0000000000, // e15.flooding total_bytes = 100800
    0x40263d70a3d6fcb0, // e15.flooding sensor_energy_j = 11.119999999993837
    0x3fd6666666666666, // e15.gossiping delivery_ratio = 0.35
    0x409fc40000000000, // e15.gossiping data_frames = 2033
    0x0000000000000000, // e15.gossiping control_frames = 0
    0x40ff44f000000000, // e15.gossiping total_bytes = 128079
    0x4010353f7ced8788, // e15.gossiping sensor_energy_j = 4.051999999997754
    0x3ff0000000000000, // e15.spin delivery_ratio = 1
    0x4099000000000000, // e15.spin data_frames = 1600
    0x40a9000000000000, // e15.spin control_frames = 3200
    0x4103ba0000000000, // e15.spin total_bytes = 161600
    0x403170a3d70a32d0, // e15.spin sensor_energy_j = 17.439999999990334
    0x3ff0000000000000, // e15.mcfa delivery_ratio = 1
    0x406e200000000000, // e15.mcfa data_frames = 241
    0x4044800000000000, // e15.mcfa control_frames = 41
    0x40ceb20000000000, // e15.mcfa total_bytes = 15716
    0x3fff16872b01f958, // e15.mcfa sensor_energy_j = 1.9429999999989231
    0x3ff0000000000000, // e15.leach delivery_ratio = 1
    0x4044000000000000, // e15.leach data_frames = 40
    0x4014000000000000, // e15.leach control_frames = 5
    0x40a5720000000000, // e15.leach total_bytes = 2745
    0x3fba9fbe76c8a400, // e15.leach sensor_energy_j = 0.10399999999994236
    0x3ff0000000000000, // e15.pegasis delivery_ratio = 1
    0x4044000000000000, // e15.pegasis data_frames = 40
    0x0000000000000000, // e15.pegasis control_frames = 0
    0x40a0900000000000, // e15.pegasis total_bytes = 2120
    0x3fb4395810624180, // e15.pegasis sensor_energy_j = 0.07899999999995622
    0x3ff0000000000000, // e15.spr_m1 delivery_ratio = 1
    0x4067400000000000, // e15.spr_m1 data_frames = 186
    0x4094400000000000, // e15.spr_m1 control_frames = 1296
    0x40f06ae000000000, // e15.spr_m1 total_bytes = 67246
    0x4021839581061a31, // e15.spr_m1 sensor_energy_j = 8.756999999995147
    0x4034000000000000, // e16.slack=0 lifetime_rounds = 20
    0x40221d25c2dd306d, // e16.slack=0 energy_d2_round8 = 9.056928719998007
    0x3ff0000000000000, // e16.slack=0 delivery_ratio = 1
    0x3ffd88e00c9f5be8, // e16.slack=0 mean_hops = 1.8459167950693374
    0x4038000000000000, // e16.slack=2 lifetime_rounds = 24
    0x401da7e1f6aa8f94, // e16.slack=2 energy_d2_round8 = 7.4139479199983676
    0x3fefeaca2927bd3c, // e16.slack=2 delivery_ratio = 0.9974108508885489
    0x40016e58247d4be9, // e16.slack=2 mean_hops = 2.178879056047198
    0x3ff0000000000000, // e2.round 1 occupied ["A", "B", "C"] selected_place_id = 1
    0x3ff0000000000000, // e2.round 1 paper_selects B selected_place_paper = 1
    0x4018000000000000, // e2.round 1 selected_hops = 6
    0x4018000000000000, // e2.round 1 paper_hops = 6
    0x4008000000000000, // e2.round 1 table_entries = 3
    0x4008000000000000, // e2.round 2 occupied ["A", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 2 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 2 selected_hops = 5
    0x4014000000000000, // e2.round 2 paper_hops = 5
    0x4010000000000000, // e2.round 2 table_entries = 4
    0x4008000000000000, // e2.round 3 occupied ["E", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 3 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 3 selected_hops = 5
    0x4014000000000000, // e2.round 3 paper_hops = 5
    0x4014000000000000, // e2.round 3 table_entries = 5
    0x405f000000000000, // e10.alpha=0 gw0_absorbed = 124
    0x4044800000000000, // e10.alpha=0 gw1_absorbed = 41
    0x3fe018d3018d3019, // e10.alpha=0 load_imbalance = 0.503030303030303
    0x3ff0000000000000, // e10.alpha=0 delivery_ratio = 1
    0x4051400000000000, // e10.alpha=4 gw0_absorbed = 69
    0x4058000000000000, // e10.alpha=4 gw1_absorbed = 96
    0x3fc4f2094f2094f2, // e10.alpha=4 load_imbalance = 0.16363636363636364
    0x3ff0000000000000, // e10.alpha=4 delivery_ratio = 1
    0x3ff0000000000000, // e13.all_awake awake_fraction = 1
    0x3ff0000000000000, // e13.all_awake delivery_ratio = 1
    0x404cd439581050bb, // e13.all_awake sensor_energy_j = 57.657999999968034
    0x4068062fc962edf1, // e13.all_awake energy_per_delivery_mj = 192.19333333322678
    0x3fddddddddddddde, // e13.gaf awake_fraction = 0.4666666666666667
    0x3ff0000000000000, // e13.gaf delivery_ratio = 1
    0x4026fced916864ae, // e13.gaf sensor_energy_j = 11.49399999999363
    0x40548666666659e5, // e13.gaf energy_per_delivery_mj = 82.0999999999545
    0x3ff0000000000000, // e14.mlr loss=0 delivery_ratio = 1
    0x3ff0000000000000, // e14.secmlr loss=0 delivery_ratio = 1
    0x3feecccccccccccd, // e14.mlr loss=0.02 delivery_ratio = 0.9625
    0x3fef99999999999a, // e14.secmlr loss=0.02 delivery_ratio = 0.9875
    0x3fec666666666666, // e14.mlr loss=0.05 delivery_ratio = 0.8875
    0x3fed99999999999a, // e14.secmlr loss=0.05 delivery_ratio = 0.925
    0x3fea000000000000, // e14.mlr loss=0.1 delivery_ratio = 0.8125
    0x3feb333333333333, // e14.secmlr loss=0.1 delivery_ratio = 0.85
    0x3ff0000000000000, // e14.mlr collisions=false csma=false delivery_ratio = 1
    0x0000000000000000, // e14.mlr collisions=false csma=false collided_frames = 0
    0x3fb3333333333333, // e14.mlr collisions=true csma=false delivery_ratio = 0.075
    0x40c2a80000000000, // e14.mlr collisions=true csma=false collided_frames = 9552
    0x3fd2666666666666, // e14.mlr collisions=true csma=true delivery_ratio = 0.2875
    0x40b2660000000000, // e14.mlr collisions=true csma=true collided_frames = 4710
    0x3ff0000000000000, // e6.mlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.mlr vs blackhole delivery_ratio = 0.5
    0x0000000000000000, // e6.mlr vs sinkhole delivery_ratio = 0
    0x3ff0000000000000, // e6.mlr vs replay delivery_ratio = 1
    0x4079000000000000, // e6.mlr vs replay duplicate_deliveries = 400
    0x0000000000000000, // e6.mlr vs false_announce delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs hello_flood delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole_guarded delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.secmlr vs blackhole delivery_ratio = 0.5
    0x3ff0000000000000, // e6.secmlr vs sinkhole delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs replay delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs replay duplicate_deliveries = 0
    0x3ff0000000000000, // e6.secmlr vs false_announce delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs hello_flood delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs wormhole delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs wormhole_guarded delivery_ratio = 1
];
const GOLDEN_SEED_37: &[u64] = &[
    0x3ff0000000000000, // e1.delivery_ratio = 1
    0x3ffe000000000000, // e1.mean_hops = 1.875
    0x40e0518000000000, // e1.mean_latency_us = 33420
    0x4052c00000000000, // e1.sent_data = 75
    0x406fe00000000000, // e1.sent_control = 255
    0x408ee00000000000, // e1.received = 988
    0x0000000000000000, // e1.collided = 0
    0x0000000000000000, // e1.csma_deferrals = 0
    0x3ff3126e978d4fe4, // e1.total_energy = 1.192000000000001
    0x3f78e9dbd14c8e5b, // e1.energy_d2 = 0.006082400000000011
    0x402a000000000000, // e3.n=20 spr m=1 lifetime_rounds = 13
    0x4041db7466d3e6e7, // e3.n=20 spr m=1 optimal_bound_rounds = 35.714489797084575
    0x402e000000000000, // e3.n=20 spr m=3 lifetime_rounds = 15
    0x4049000d1b7854cd, // e3.n=20 spr m=3 optimal_bound_rounds = 50.00040000320005
    0x4039000000000000, // e3.n=20 mlr m=3 lifetime_rounds = 25
    0x4049000d1b7854cd, // e3.n=20 mlr m=3 optimal_bound_rounds = 50.00040000320005
    0x40a4060000000000, // e5.mlr incremental rounds=6 control_frames_total = 2563
    0x405e800000000000, // e5.mlr incremental rounds=6 control_frames_steady_state = 122
    0x3ff0000000000000, // e5.mlr incremental rounds=6 delivery_ratio = 1
    0x40b5d10000000000, // e5.mlr reset_each_round rounds=6 control_frames_total = 5585
    0x409d340000000000, // e5.mlr reset_each_round rounds=6 control_frames_steady_state = 1869
    0x3ff0000000000000, // e5.mlr reset_each_round rounds=6 delivery_ratio = 1
    0x40a0e60000000000, // e7.mlr total_frames = 2163
    0x40f8ac1000000000, // e7.mlr total_bytes = 101057
    0x40f41e2000000000, // e7.mlr control_bytes = 82402
    0x0000000000000000, // e7.mlr security_bytes = 0
    0x40d937258bf258bf, // e7.mlr mean_latency_us = 25820.586666666666
    0x3ff0000000000000, // e7.mlr delivery_ratio = 1
    0x4024d916872af558, // e7.mlr sensor_energy_j = 10.423999999994223
    0x40d1b50000000000, // e7.secmlr total_frames = 18132
    0x4138506300000000, // e7.secmlr total_bytes = 1593443
    0x4133077e00000000, // e7.secmlr control_bytes = 1247102
    0x4113b1d400000000, // e7.secmlr security_bytes = 322677
    0x410f41162fc962fd, // e7.secmlr mean_latency_us = 256034.77333333335
    0x3ff0000000000000, // e7.secmlr delivery_ratio = 1
    0x40609972474533c8, // e7.secmlr sensor_energy_j = 132.7951999999625
    0x3ff0000000000000, // e8.leach healthy delivery_ratio = 1
    0x3fe0000000000000, // e8.leach heads_killed delivery_ratio = 0.5
    0x3fedddddddddddde, // e8.leach next_round delivery_ratio = 0.9333333333333333
    0x3ff0000000000000, // e8.mlr healthy delivery_ratio = 1
    0x3fe2222222222222, // e8.mlr gateway_killed delivery_ratio = 0.5666666666666667
    0x3ff0000000000000, // e8.mlr after_redirect delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round0_delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round1_delivery_ratio = 1
    0x405e000000000000, // e12.three-tier wmg_absorbed = 120
    0x405e000000000000, // e12.three-tier uplinked = 120
    0x405e000000000000, // e12.three-tier base_station_received = 120
    0x0000000000000000, // e12.backbone healthy backbone_asymmetry = 0
    0x0000000000000000, // e12.backbone healthy base_silence = 0
    0x0000000000000000, // e12.base killed backbone_asymmetry = 0
    0x3ff0000000000000, // e12.base killed base_silence = 1
    0x3ff0000000000000, // e12.base killed accused_base_station = 1
    0x3ff0000000000000, // e15.flooding delivery_ratio = 1
    0x4099000000000000, // e15.flooding data_frames = 1600
    0x0000000000000000, // e15.flooding control_frames = 0
    0x40f89c0000000000, // e15.flooding total_bytes = 100800
    0x4029eb851eb84220, // e15.flooding sensor_energy_j = 12.959999999992817
    0x3fcccccccccccccd, // e15.gossiping delivery_ratio = 0.225
    0x40a27a0000000000, // e15.gossiping data_frames = 2365
    0x0000000000000000, // e15.gossiping control_frames = 0
    0x4102301800000000, // e15.gossiping total_bytes = 148995
    0x4012e24dd2f19e7a, // e15.gossiping sensor_energy_j = 4.7209999999973835
    0x3ff0000000000000, // e15.spin delivery_ratio = 1
    0x4099000000000000, // e15.spin data_frames = 1600
    0x40a9000000000000, // e15.spin control_frames = 3200
    0x4103ba0000000000, // e15.spin total_bytes = 161600
    0x403347ae147ad588, // e15.spin sensor_energy_j = 19.279999999989315
    0x3ff0000000000000, // e15.mcfa delivery_ratio = 1
    0x4070300000000000, // e15.mcfa data_frames = 259
    0x4044800000000000, // e15.mcfa control_frames = 41
    0x40d0748000000000, // e15.mcfa total_bytes = 16850
    0x4004d916872af558, // e15.mcfa sensor_energy_j = 2.6059999999985557
    0x3ff0000000000000, // e15.leach delivery_ratio = 1
    0x4044000000000000, // e15.leach data_frames = 40
    0x4010000000000000, // e15.leach control_frames = 4
    0x40a4700000000000, // e15.leach total_bytes = 2616
    0x3fb74bc6a7ef8f80, // e15.leach sensor_energy_j = 0.09099999999994957
    0x3ff0000000000000, // e15.pegasis delivery_ratio = 1
    0x4044000000000000, // e15.pegasis data_frames = 40
    0x0000000000000000, // e15.pegasis control_frames = 0
    0x40a0900000000000, // e15.pegasis total_bytes = 2120
    0x3fb4395810624180, // e15.pegasis sensor_energy_j = 0.07899999999995622
    0x3ff0000000000000, // e15.spr_m1 delivery_ratio = 1
    0x4067200000000000, // e15.spr_m1 data_frames = 185
    0x4099c00000000000, // e15.spr_m1 control_frames = 1648
    0x40f42af000000000, // e15.spr_m1 total_bytes = 82607
    0x402786a7ef9da3d7, // e15.spr_m1 sensor_energy_j = 11.76299999999348
    0x403c000000000000, // e16.slack=0 lifetime_rounds = 28
    0x40132507a6bd69e7, // e16.slack=0 energy_d2_round8 = 4.786161999998945
    0x3fefc88dbd53e6d1, // e16.slack=0 delivery_ratio = 0.9932316491897045
    0x3ffc7e1885778914, // e16.slack=0 mean_hops = 1.7807851041366733
    0x4040000000000000, // e16.slack=2 lifetime_rounds = 32
    0x40111b28954a7b5d, // e16.slack=2 energy_d2_round8 = 4.276521999999059
    0x3feffcb888e7ac38, // e16.slack=2 delivery_ratio = 0.9995997117924906
    0x40007d5069a19ab7, // e16.slack=2 mean_hops = 2.0611885311548934
    0x3ff0000000000000, // e2.round 1 occupied ["A", "B", "C"] selected_place_id = 1
    0x3ff0000000000000, // e2.round 1 paper_selects B selected_place_paper = 1
    0x4018000000000000, // e2.round 1 selected_hops = 6
    0x4018000000000000, // e2.round 1 paper_hops = 6
    0x4008000000000000, // e2.round 1 table_entries = 3
    0x4008000000000000, // e2.round 2 occupied ["A", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 2 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 2 selected_hops = 5
    0x4014000000000000, // e2.round 2 paper_hops = 5
    0x4010000000000000, // e2.round 2 table_entries = 4
    0x4008000000000000, // e2.round 3 occupied ["E", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 3 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 3 selected_hops = 5
    0x4014000000000000, // e2.round 3 paper_hops = 5
    0x4014000000000000, // e2.round 3 table_entries = 5
    0x405d000000000000, // e10.alpha=0 gw0_absorbed = 116
    0x4041000000000000, // e10.alpha=0 gw1_absorbed = 34
    0x3fe17e4b17e4b17e, // e10.alpha=0 load_imbalance = 0.5466666666666666
    0x3ff0000000000000, // e10.alpha=0 delivery_ratio = 1
    0x405d000000000000, // e10.alpha=4 gw0_absorbed = 116
    0x4041000000000000, // e10.alpha=4 gw1_absorbed = 34
    0x3fe17e4b17e4b17e, // e10.alpha=4 load_imbalance = 0.5466666666666666
    0x3ff0000000000000, // e10.alpha=4 delivery_ratio = 1
    0x3ff0000000000000, // e13.all_awake awake_fraction = 1
    0x3ff0000000000000, // e13.all_awake delivery_ratio = 1
    0x404b10624dd2e130, // e13.all_awake sensor_energy_j = 54.12799999997003
    0x40668da740da6653, // e13.all_awake energy_per_delivery_mj = 180.42666666656677
    0x3fe0000000000000, // e13.gaf awake_fraction = 0.5
    0x3ff0000000000000, // e13.gaf delivery_ratio = 1
    0x40265a1cac082388, // e13.gaf sensor_energy_j = 11.175999999993806
    0x4052a06d3a06c847, // e13.gaf energy_per_delivery_mj = 74.50666666662538
    0x3ff0000000000000, // e14.mlr loss=0 delivery_ratio = 1
    0x3ff0000000000000, // e14.secmlr loss=0 delivery_ratio = 1
    0x3feecccccccccccd, // e14.mlr loss=0.02 delivery_ratio = 0.9625
    0x3feecccccccccccd, // e14.secmlr loss=0.02 delivery_ratio = 0.9625
    0x3fed333333333333, // e14.mlr loss=0.05 delivery_ratio = 0.9125
    0x3fee000000000000, // e14.secmlr loss=0.05 delivery_ratio = 0.9375
    0x3fec000000000000, // e14.mlr loss=0.1 delivery_ratio = 0.875
    0x3fe8cccccccccccd, // e14.secmlr loss=0.1 delivery_ratio = 0.775
    0x3ff0000000000000, // e14.mlr collisions=false csma=false delivery_ratio = 1
    0x0000000000000000, // e14.mlr collisions=false csma=false collided_frames = 0
    0x3f8999999999999a, // e14.mlr collisions=true csma=false delivery_ratio = 0.0125
    0x40c2e78000000000, // e14.mlr collisions=true csma=false collided_frames = 9679
    0x3fd599999999999a, // e14.mlr collisions=true csma=true delivery_ratio = 0.3375
    0x40a9140000000000, // e14.mlr collisions=true csma=true collided_frames = 3210
    0x3ff0000000000000, // e6.mlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.mlr vs blackhole delivery_ratio = 0.5
    0x0000000000000000, // e6.mlr vs sinkhole delivery_ratio = 0
    0x3ff0000000000000, // e6.mlr vs replay delivery_ratio = 1
    0x4079000000000000, // e6.mlr vs replay duplicate_deliveries = 400
    0x0000000000000000, // e6.mlr vs false_announce delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs hello_flood delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole_guarded delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.secmlr vs blackhole delivery_ratio = 0.5
    0x3ff0000000000000, // e6.secmlr vs sinkhole delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs replay delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs replay duplicate_deliveries = 0
    0x3ff0000000000000, // e6.secmlr vs false_announce delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs hello_flood delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs wormhole delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs wormhole_guarded delivery_ratio = 1
];
const GOLDEN_SEED_53: &[u64] = &[
    0x3ff0000000000000, // e1.delivery_ratio = 1
    0x3ffe666666666666, // e1.mean_hops = 1.9
    0x40d9606666666666, // e1.mean_latency_us = 25985.6
    0x4053000000000000, // e1.sent_data = 76
    0x4071500000000000, // e1.sent_control = 277
    0x4092900000000000, // e1.received = 1188
    0x0000000000000000, // e1.collided = 0
    0x0000000000000000, // e1.csma_deferrals = 0
    0x3ff63d70a3d70a42, // e1.total_energy = 1.390000000000001
    0x3f6e1c15097c8095, // e1.energy_d2 = 0.0036755000000000073
    0x4026000000000000, // e3.n=20 spr m=1 lifetime_rounds = 11
    0x402d696df277ae90, // e3.n=20 spr m=1 optimal_bound_rounds = 14.70591695509873
    0x4031000000000000, // e3.n=20 spr m=3 lifetime_rounds = 17
    0x4041db7466d3e6e7, // e3.n=20 spr m=3 optimal_bound_rounds = 35.714489797084575
    0x403a000000000000, // e3.n=20 mlr m=3 lifetime_rounds = 26
    0x4041db7466d3e6e7, // e3.n=20 mlr m=3 optimal_bound_rounds = 35.714489797084575
    0x40a3360000000000, // e5.mlr incremental rounds=6 control_frames_total = 2459
    0x405e800000000000, // e5.mlr incremental rounds=6 control_frames_steady_state = 122
    0x3ff0000000000000, // e5.mlr incremental rounds=6 delivery_ratio = 1
    0x40b5d30000000000, // e5.mlr reset_each_round rounds=6 control_frames_total = 5587
    0x409cfc0000000000, // e5.mlr reset_each_round rounds=6 control_frames_steady_state = 1855
    0x3ff0000000000000, // e5.mlr reset_each_round rounds=6 delivery_ratio = 1
    0x40a2340000000000, // e7.mlr total_frames = 2330
    0x40f9ada000000000, // e7.mlr total_bytes = 105178
    0x40f5444000000000, // e7.mlr control_bytes = 87108
    0x0000000000000000, // e7.mlr security_bytes = 0
    0x40da9fc962fc9630, // e7.mlr mean_latency_us = 27263.146666666667
    0x3ff0000000000000, // e7.mlr delivery_ratio = 1
    0x4029a5e353f7bf38, // e7.mlr sensor_energy_j = 12.823999999992893
    0x40d14b0000000000, // e7.secmlr total_frames = 17708
    0x413754a500000000, // e7.secmlr total_bytes = 1528997
    0x41321cbe00000000, // e7.secmlr control_bytes = 1187006
    0x4113b1d400000000, // e7.secmlr security_bytes = 322677
    0x410f1e6b851eb852, // e7.secmlr mean_latency_us = 254925.44
    0x3ff0000000000000, // e7.secmlr delivery_ratio = 1
    0x40640a9930be09de, // e7.secmlr sensor_energy_j = 160.33119999997047
    0x3ff0000000000000, // e8.leach healthy delivery_ratio = 1
    0x3fdbbbbbbbbbbbbc, // e8.leach heads_killed delivery_ratio = 0.43333333333333335
    0x3fee666666666666, // e8.leach next_round delivery_ratio = 0.95
    0x3ff0000000000000, // e8.mlr healthy delivery_ratio = 1
    0x3fe5555555555555, // e8.mlr gateway_killed delivery_ratio = 0.6666666666666666
    0x3ff0000000000000, // e8.mlr after_redirect delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round0_delivery_ratio = 1
    0x3ff0000000000000, // e12.three-tier round1_delivery_ratio = 1
    0x405e000000000000, // e12.three-tier wmg_absorbed = 120
    0x405e000000000000, // e12.three-tier uplinked = 120
    0x405e000000000000, // e12.three-tier base_station_received = 120
    0x0000000000000000, // e12.backbone healthy backbone_asymmetry = 0
    0x0000000000000000, // e12.backbone healthy base_silence = 0
    0x0000000000000000, // e12.base killed backbone_asymmetry = 0
    0x3ff0000000000000, // e12.base killed base_silence = 1
    0x3ff0000000000000, // e12.base killed accused_base_station = 1
    0x3ff0000000000000, // e15.flooding delivery_ratio = 1
    0x4099000000000000, // e15.flooding data_frames = 1600
    0x0000000000000000, // e15.flooding control_frames = 0
    0x40f89c0000000000, // e15.flooding total_bytes = 100800
    0x402828f5c28f4d70, // e15.flooding sensor_energy_j = 12.079999999993305
    0x3fdccccccccccccd, // e15.gossiping delivery_ratio = 0.45
    0x409fac0000000000, // e15.gossiping data_frames = 2027
    0x0000000000000000, // e15.gossiping control_frames = 0
    0x40ff2d5000000000, // e15.gossiping total_bytes = 127701
    0x401024dd2f1a95e8, // e15.gossiping sensor_energy_j = 4.035999999997763
    0x3ff0000000000000, // e15.spin delivery_ratio = 1
    0x4099000000000000, // e15.spin data_frames = 1600
    0x40a9000000000000, // e15.spin control_frames = 3200
    0x4103ba0000000000, // e15.spin total_bytes = 161600
    0x4032666666665b30, // e15.spin sensor_energy_j = 18.399999999989802
    0x3ff0000000000000, // e15.mcfa delivery_ratio = 1
    0x406f000000000000, // e15.mcfa data_frames = 248
    0x4044800000000000, // e15.mcfa control_frames = 41
    0x40cf8e8000000000, // e15.mcfa total_bytes = 16157
    0x40039db22d0e4a10, // e15.mcfa sensor_energy_j = 2.451999999998641
    0x3ff0000000000000, // e15.leach delivery_ratio = 1
    0x4044000000000000, // e15.leach data_frames = 40
    0x401c000000000000, // e15.leach control_frames = 7
    0x40a4560000000000, // e15.leach total_bytes = 2603
    0x3fb8d4fdf3b63680, // e15.leach sensor_energy_j = 0.09699999999994624
    0x3ff0000000000000, // e15.pegasis delivery_ratio = 1
    0x4044000000000000, // e15.pegasis data_frames = 40
    0x0000000000000000, // e15.pegasis control_frames = 0
    0x40a0900000000000, // e15.pegasis total_bytes = 2120
    0x3fb4395810624180, // e15.pegasis sensor_energy_j = 0.07899999999995622
    0x3ff0000000000000, // e15.spr_m1 delivery_ratio = 1
    0x4061c00000000000, // e15.spr_m1 data_frames = 142
    0x4099f80000000000, // e15.spr_m1 control_frames = 1662
    0x40f5244000000000, // e15.spr_m1 total_bytes = 86596
    0x4022ad916872a4bf, // e15.spr_m1 sensor_energy_j = 9.338999999994824
    0x403a000000000000, // e16.slack=0 lifetime_rounds = 26
    0x40140a094e077011, // e16.slack=0 energy_d2_round8 = 5.009801119998898
    0x3ff0000000000000, // e16.slack=0 delivery_ratio = 1
    0x3ffe1c9824afe1ca, // e16.slack=0 mean_hops = 1.8819810326659643
    0x403f000000000000, // e16.slack=2 lifetime_rounds = 31
    0x40119310c925f4f8, // e16.slack=2 energy_d2_round8 = 4.393618719999033
    0x3fefc712b09c60b5, // e16.slack=2 delivery_ratio = 0.9930509042196919
    0x4000aba177083927, // e16.slack=2 mean_hops = 2.083804063738302
    0x3ff0000000000000, // e2.round 1 occupied ["A", "B", "C"] selected_place_id = 1
    0x3ff0000000000000, // e2.round 1 paper_selects B selected_place_paper = 1
    0x4018000000000000, // e2.round 1 selected_hops = 6
    0x4018000000000000, // e2.round 1 paper_hops = 6
    0x4008000000000000, // e2.round 1 table_entries = 3
    0x4008000000000000, // e2.round 2 occupied ["A", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 2 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 2 selected_hops = 5
    0x4014000000000000, // e2.round 2 paper_hops = 5
    0x4010000000000000, // e2.round 2 table_entries = 4
    0x4008000000000000, // e2.round 3 occupied ["E", "D", "C"] selected_place_id = 3
    0x4008000000000000, // e2.round 3 paper_selects D selected_place_paper = 3
    0x4014000000000000, // e2.round 3 selected_hops = 5
    0x4014000000000000, // e2.round 3 paper_hops = 5
    0x4014000000000000, // e2.round 3 table_entries = 5
    0x4060400000000000, // e10.alpha=0 gw0_absorbed = 130
    0x4039000000000000, // e10.alpha=0 gw1_absorbed = 25
    0x3fe5ad6b5ad6b5ad, // e10.alpha=0 load_imbalance = 0.6774193548387096
    0x3ff0000000000000, // e10.alpha=0 delivery_ratio = 1
    0x4049000000000000, // e10.alpha=4 gw0_absorbed = 50
    0x405a400000000000, // e10.alpha=4 gw1_absorbed = 105
    0x3fd6b5ad6b5ad6b6, // e10.alpha=4 load_imbalance = 0.3548387096774194
    0x3ff0000000000000, // e10.alpha=4 delivery_ratio = 1
    0x3ff0000000000000, // e13.all_awake awake_fraction = 1
    0x3ff0000000000000, // e13.all_awake delivery_ratio = 1
    0x404b945a1cabf765, // e13.all_awake sensor_energy_j = 55.158999999969446
    0x4066fba06d39f8d4, // e13.all_awake energy_per_delivery_mj = 183.86333333323148
    0x3fdc28f5c28f5c29, // e13.gaf awake_fraction = 0.44
    0x3ff0000000000000, // e13.gaf delivery_ratio = 1
    0x402266e978d4f2bd, // e13.gaf sensor_energy_j = 9.2009999999949
    0x40516d1745d169bf, // e13.gaf energy_per_delivery_mj = 69.70454545450683
    0x3ff0000000000000, // e14.mlr loss=0 delivery_ratio = 1
    0x3ff0000000000000, // e14.secmlr loss=0 delivery_ratio = 1
    0x3fef99999999999a, // e14.mlr loss=0.02 delivery_ratio = 0.9875
    0x3fee666666666666, // e14.secmlr loss=0.02 delivery_ratio = 0.95
    0x3fec666666666666, // e14.mlr loss=0.05 delivery_ratio = 0.8875
    0x3fed99999999999a, // e14.secmlr loss=0.05 delivery_ratio = 0.925
    0x3feb333333333333, // e14.mlr loss=0.1 delivery_ratio = 0.85
    0x3fec666666666666, // e14.secmlr loss=0.1 delivery_ratio = 0.8875
    0x3ff0000000000000, // e14.mlr collisions=false csma=false delivery_ratio = 1
    0x0000000000000000, // e14.mlr collisions=false csma=false collided_frames = 0
    0x3fa999999999999a, // e14.mlr collisions=true csma=false delivery_ratio = 0.05
    0x40c2e40000000000, // e14.mlr collisions=true csma=false collided_frames = 9672
    0x3fdc000000000000, // e14.mlr collisions=true csma=true delivery_ratio = 0.4375
    0x40a77e0000000000, // e14.mlr collisions=true csma=true collided_frames = 3007
    0x3ff0000000000000, // e6.mlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.mlr vs blackhole delivery_ratio = 0.5
    0x0000000000000000, // e6.mlr vs sinkhole delivery_ratio = 0
    0x3ff0000000000000, // e6.mlr vs replay delivery_ratio = 1
    0x4079000000000000, // e6.mlr vs replay duplicate_deliveries = 400
    0x0000000000000000, // e6.mlr vs false_announce delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs hello_flood delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole delivery_ratio = 0
    0x0000000000000000, // e6.mlr vs wormhole_guarded delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs none delivery_ratio = 1
    0x3fe0000000000000, // e6.secmlr vs blackhole delivery_ratio = 0.5
    0x3ff0000000000000, // e6.secmlr vs sinkhole delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs replay delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs replay duplicate_deliveries = 0
    0x3ff0000000000000, // e6.secmlr vs false_announce delivery_ratio = 1
    0x3ff0000000000000, // e6.secmlr vs hello_flood delivery_ratio = 1
    0x0000000000000000, // e6.secmlr vs wormhole delivery_ratio = 0
    0x3ff0000000000000, // e6.secmlr vs wormhole_guarded delivery_ratio = 1
];
