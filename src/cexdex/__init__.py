"""CEX-DEX arbitrage analytics: detection, markout revenue, execution
horizons, trade economics, market structure, and builder profitability."""
