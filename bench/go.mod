module eventdb/bench

go 1.21

require eventdb v0.0.0

replace eventdb => ../
