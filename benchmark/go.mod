module spatialtf/benchmark

go 1.24

require spatialtf v0.0.0

replace spatialtf => ../
