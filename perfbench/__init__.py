"""Out-of-process SOAP/SPI benchmark: see README.md."""
