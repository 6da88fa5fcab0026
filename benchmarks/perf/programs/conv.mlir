builtin.module() ({
  %kernel = equeue.create_proc() {kind = "ARMr5"} : () -> !equeue.proc
  %dma = equeue.create_dma() : () -> !equeue.dma
  %sram = equeue.create_mem() {banks = 2 : i64, data_bits = 32 : i64, kind = "SRAM", ports = 2 : i64, size = 488 : i64} : () -> !equeue.mem
  %regfile = equeue.create_mem() {banks = 1 : i64, data_bits = 32 : i64, kind = "Register", ports = 1 : i64, size = 488 : i64} : () -> !equeue.mem
  %ifmap = memref.alloc() : () -> memref<2x8x8xi32>
  %weight = memref.alloc() : () -> memref<2x2x3x3xi32>
  %ofmap = memref.alloc() : () -> memref<2x6x6xi32>
  linalg.conv2d(%ifmap, %weight, %ofmap) : (memref<2x8x8xi32>, memref<2x2x3x3xi32>, memref<2x6x6xi32>) -> ()
}) : () -> ()

