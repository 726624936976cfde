"""The JETS middleware: dispatcher, workers, aggregation, fault tolerance."""
