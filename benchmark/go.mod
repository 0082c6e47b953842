module sdnpc/benchmark

go 1.23

require sdnpc v0.0.0

replace sdnpc => ../
