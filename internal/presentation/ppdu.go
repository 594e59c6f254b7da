// Package presentation implements a kernel-functional-unit ISO presentation
// layer (ISO 8823 style): context negotiation at connect time and
// context-tagged data transfer, with PPDUs defined in ASN.1 and encoded in
// BER — the combination the paper's control stack uses (Estelle presentation
// layer over the session layer, ASN.1 tooling from refs [9], [16]).
package presentation

// ModuleText is the ASN.1 definition of the presentation PDUs: the spec of
// record for the typed codec (ppdu_append.go, ppdu_decode.go), which the
// tests check against the asn1ber schema codec compiled from it.
const ModuleText = `
ISO-Presentation DEFINITIONS ::= BEGIN
  ContextItem ::= SEQUENCE {
     id              INTEGER,
     abstractSyntax  IA5String
  }
  CP ::= SEQUENCE {
     callingSelector [0] IA5String OPTIONAL,
     calledSelector  [1] IA5String OPTIONAL,
     contextList     [2] SEQUENCE OF ContextItem,
     userData        [3] OCTET STRING OPTIONAL
  }
  ResultItem ::= SEQUENCE {
     id       INTEGER,
     accepted BOOLEAN
  }
  CPA ::= SEQUENCE {
     resultList [0] SEQUENCE OF ResultItem,
     userData   [1] OCTET STRING OPTIONAL
  }
  CPR ::= SEQUENCE {
     reason IA5String
  }
  TD ::= SEQUENCE {
     contextID INTEGER,
     data      OCTET STRING
  }
  ARP ::= SEQUENCE {
     reason IA5String
  }
  PPDU ::= CHOICE {
     cp    [10] CP,
     cpa   [11] CPA,
     cpr   [12] CPR,
     td    [13] TD,
     arp   [14] ARP
  }
END
`

// Context is one proposed/negotiated presentation context.
type Context struct {
	ID             int64
	AbstractSyntax string
}

// Result is the responder's verdict on one proposed context.
type Result struct {
	ID       int64
	Accepted bool
}

// CP is the connect-presentation PDU.
type CP struct {
	CallingSelector string
	CalledSelector  string
	Contexts        []Context
	UserData        []byte
}

// CPA is the connect-presentation-accept PDU.
type CPA struct {
	Results  []Result
	UserData []byte
}

// CPR is the connect-presentation-refuse PDU.
type CPR struct {
	Reason string
}

// TD is the presentation data PDU: user data tagged with its context.
type TD struct {
	ContextID int64
	Data      []byte
}

// ARP is the abnormal-release (abort) PDU.
type ARP struct {
	Reason string
}

// PPDU is the union of presentation PDUs; exactly one field is non-nil.
type PPDU struct {
	CP  *CP
	CPA *CPA
	CPR *CPR
	TD  *TD
	ARP *ARP
}

// Encode produces the BER encoding of the PPDU (see ppdu_append.go).
func (p *PPDU) Encode() ([]byte, error) {
	return p.Append(nil)
}
